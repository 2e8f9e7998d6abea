"""The five benchmark workloads.

Each workload builds a fresh deployment from a seed, warms it up untimed,
runs one timed region, and can verify what the program produced.  Sizes are
the fixed constants in :data:`SIZES` (one repetition is about 3 s of host
time on the 2-core sandbox); the seed picks the simulator's randomness and
the generated keys, values and op order, never the op counts of the
closed-loop workloads.

Why these five (the longer argument is in perf/README.md): ``kv_write`` is
the ordering message path with almost no service work; ``kv_fast_rw`` drives
the same replica and client code through the fast path (pipelining,
tentative replies, leased reads); ``nfs_andrew`` is the paper's own
evaluation, one sequential client against four different file servers under
a recovery rotation, where the codec and the service dominate;
``shard4_txn`` puts sixteen replicas and 2PC on one simulator; ``wan_soak``
is a short copy of the tier-1 soak campaigns, the only workload with
partitions, view changes and continuous oracles.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.andrew import AndrewBenchmark
from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.bft.sharding import sharded_kv_cluster
from repro.bft.testing import encode_get, encode_set, kv_cluster
from repro.explore.plan import FaultPlan, FaultStep
from repro.net.network import NetworkConfig
from repro.nfs.client import NFSClient
from repro.nfs.direct import direct_client
from repro.nfs.fileserver import Ext2FS, FFS, LogFS, MemFS
from repro.nfs.relay import NFSDeployment
from repro.net.simulator import Simulator
from repro.soak import runner as soak_runner
from repro.util.stats import Counters

SIZES: Dict[str, Dict[str, float]] = {
    "kv_write": {"clients": 16, "ops_per_client": 370},
    "kv_fast_rw": {"clients": 16, "ops_per_client": 156},
    "nfs_andrew": {"scale": 6, "num_objects": 768, "recovery_period": 3.0},
    "shard4_txn": {"shards": 4, "clients_per_shard": 8, "ops_per_client": 90},
    "wan_soak": {"cycles": 5, "cycle_gap": 150.0, "recovery_period": 120.0},
}

#: The same shapes, small enough for perf/test_perf.py to run in seconds.
TINY_SIZES: Dict[str, Dict[str, float]] = {
    "kv_write": {"clients": 4, "ops_per_client": 40},
    "kv_fast_rw": {"clients": 4, "ops_per_client": 40},
    "nfs_andrew": {"scale": 1, "num_objects": 256, "recovery_period": 1.0},
    "shard4_txn": {"shards": 2, "clients_per_shard": 2, "ops_per_client": 20},
    "wan_soak": {"cycles": 1, "cycle_gap": 0.0, "recovery_period": 40.0},
}

#: Share of each closed-loop client's ops run untimed before the region, so
#: session keys, first checkpoints and lease grants are behind us.
WARM_SHARE = 0.05

KV_CONFIG = dict(checkpoint_interval=16, log_window=64, batch_max=16)
FAST_PATH = dict(pipeline_depth=8, speculative_execution=True, read_leases=True)
VALUE_BYTES = (16, 64)


class WorkloadError(RuntimeError):
    """The workload could not run to completion (not a wrong output)."""


def _value(rng: random.Random) -> bytes:
    return rng.randbytes(rng.randrange(VALUE_BYTES[0], VALUE_BYTES[1] + 1))


def _merged(bags: Sequence[Counters]) -> Counters:
    total = Counters()
    for bag in bags:
        total.merge(bag)
    return total


def _manager_counters(clusters: Sequence[Cluster]) -> List[Counters]:
    """State-manager bags of the live services (a service rebuilt by a
    recovery starts its bag at zero; the replica bags survive reboots)."""
    return [
        host.service.manager.counters
        for cluster in clusters
        for host in cluster.hosts.values()
    ]


class Workload:
    """One deployment + load; subclasses fill in the five steps."""

    name = ""

    def __init__(self, seed: int, sizes: Optional[Dict[str, float]] = None) -> None:
        self.seed = seed
        self.sizes = dict(sizes if sizes is not None else SIZES[self.name])
        self.wrong = 0  # ops that completed with a result the model rejects

    def build(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed warm-up on the built deployment."""

    def run(self) -> Tuple[float, float]:
        """The timed region; returns its virtual (start, end) instants."""
        raise NotImplementedError

    def clusters(self) -> List[Cluster]:
        """Every replica group of the deployment."""
        raise NotImplementedError

    def counters(self) -> Counters:
        """Every ``Counters`` bag of the deployment, merged."""
        clusters = self.clusters()
        return _merged(
            [c.total_counters() for c in clusters] + _manager_counters(clusters)
        )

    def verify(self) -> List[str]:
        """Problems with what the program produced (empty = correct)."""
        raise NotImplementedError


# -- closed-loop KV driver -----------------------------------------------------------


class _Plan:
    """One closed-loop client's generated op list and what came back."""

    __slots__ = ("client", "ops", "next", "done")

    def __init__(self, client, ops: List[Tuple[str, int, bytes]]) -> None:
        self.client = client
        self.ops = ops  # (kind, slot, value)
        self.next = 0
        self.done = 0


def _drive(
    sim: Simulator,
    plans: List[_Plan],
    until: Callable[[_Plan], int],
    issue: Callable[[_Plan, Callable[[], None]], None],
) -> None:
    """Run every plan closed-loop up to op index ``until(plan)``."""

    def step(plan: _Plan) -> None:
        if plan.next < until(plan):
            plan.next += 1
            issue(plan, lambda: finished(plan))

    def finished(plan: _Plan) -> None:
        plan.done += 1
        step(plan)

    for plan in plans:
        step(plan)
    complete = sim.run_until_condition(
        lambda: all(plan.done >= until(plan) for plan in plans), timeout=3600.0
    )
    if not complete:
        raise WorkloadError("closed-loop clients did not finish in virtual time")


class _KVWorkload(Workload):
    """16 closed-loop clients on one ``kv_cluster``.

    Client ``i`` is the only writer of slot ``i``, so the final state has an
    exact sequential model, and a GET of any slot must return a value its
    writer had issued and not yet overwritten when the GET ran."""

    config: Dict[str, object] = {}
    read_every = 0  # every n-th op of a client is a read-only GET (0 = none)

    def build(self) -> None:
        rng = random.Random(self.seed)
        clients = int(self.sizes["clients"])
        per_client = int(self.sizes["ops_per_client"])
        self.cluster = kv_cluster(
            config=BFTConfig(**KV_CONFIG, **self.config),
            seed=self.seed,
            num_slots=max(32, clients),
        )
        self.plans: List[_Plan] = []
        for index in range(clients):
            ops = []
            for number in range(per_client):
                if self.read_every and number % self.read_every == self.read_every - 1:
                    ops.append(("GET", rng.randrange(clients), b""))
                else:
                    ops.append(("SET", index, _value(rng)))
            self.plans.append(_Plan(self.cluster.client(f"C{index}"), ops))
        # Per slot: values its writer has issued / seen acknowledged so far.
        self._issued: List[List[bytes]] = [[b""] for _ in range(clients)]
        self._acked = [0] * clients

    def _issue(self, plan: _Plan, done: Callable[[], None]) -> None:
        kind, slot, value = plan.ops[plan.next - 1]
        if kind == "SET":
            self._issued[slot].append(value)
            position = len(self._issued[slot]) - 1

            def on_set(result: bytes) -> None:
                self._acked[slot] = position
                if result != b"OK":
                    self.wrong += 1
                done()

            plan.client.invoke_async(encode_set(slot, value), on_set)
        else:
            oldest = self._acked[slot]

            def on_get(result: bytes) -> None:
                if result not in self._issued[slot][oldest:]:
                    self.wrong += 1
                done()

            plan.client.invoke_async(encode_get(slot), on_get, read_only=True)

    def warm(self) -> None:
        _drive(
            self.cluster.sim,
            self.plans,
            lambda plan: int(len(plan.ops) * WARM_SHARE),
            self._issue,
        )

    def run(self) -> Tuple[float, float]:
        sim = self.cluster.sim
        started = sim.now()
        _drive(sim, self.plans, lambda plan: len(plan.ops), self._issue)
        return started, sim.now()

    def clusters(self) -> List[Cluster]:
        return [self.cluster]

    def verify(self) -> List[str]:
        problems = []
        checker = self.cluster.client("check")
        for slot, issued in enumerate(self._issued):
            stored = checker.invoke(encode_get(slot), timeout=60.0)
            if stored != issued[-1]:
                problems.append(f"slot {slot} does not hold its writer's last SET")
        return problems


class KVWrite(_KVWorkload):
    name = "kv_write"


class KVFastRW(_KVWorkload):
    name = "kv_fast_rw"
    config = FAST_PATH
    read_every = 2


# -- the paper's Andrew benchmark ------------------------------------------------------

HETERO = {
    "R0": lambda disk: MemFS(disk=disk, seed=1, clock_skew=0.5),
    "R1": lambda disk: Ext2FS(disk=disk, seed=2, clock_skew=-0.3),
    "R2": lambda disk: FFS(disk=disk, seed=3, clock_skew=0.8),
    "R3": lambda disk: LogFS(disk=disk, seed=4, clock_skew=0.1),
}


class NFSAndrew(Workload):
    name = "nfs_andrew"

    def build(self) -> None:
        self.deployment = NFSDeployment(
            dict(HETERO),
            config=BFTConfig(
                checkpoint_interval=16,
                log_window=64,
                recovery_period=float(self.sizes["recovery_period"]),
            ),
            seed=self.seed,
            num_objects=int(self.sizes["num_objects"]),
        )
        self.fs = NFSClient(self.deployment.relay("C0"))
        self.andrew = AndrewBenchmark(
            self.fs, self.deployment.sim, scale=int(self.sizes["scale"]), seed=self.seed
        )

    def warm(self) -> None:
        self.fs.mkdir("/warm")
        self.fs.write_file("/warm/file", b"warm-up\n" * 16)
        self.fs.read_file("/warm/file")
        self.deployment.cluster.start_proactive_recovery()

    def run(self) -> Tuple[float, float]:
        sim = self.deployment.sim
        started = sim.now()
        self.result = self.andrew.run()
        return started, sim.now()

    def clusters(self) -> List[Cluster]:
        return [self.deployment.cluster]

    def verify(self) -> List[str]:
        problems = []
        for path, body in self.andrew.files:
            if self.fs.read_file(f"{self.andrew.root}/{path}") != body:
                problems.append(f"{path} does not read back what the copy phase wrote")
        return problems

    def baseline_virtual_seconds(self) -> float:
        """The same Andrew run against one unreplicated file server."""
        sim = Simulator(seed=0)
        fs = direct_client(MemFS(disk={}, seed=1), sim=sim)
        return (
            AndrewBenchmark(fs, sim, scale=int(self.sizes["scale"]), seed=self.seed)
            .run()
            .total_seconds
        )


# -- four shards with cross-shard transactions ------------------------------------------

#: Per-shard slot layout, the one ``repro bench --suite shard`` uses: singles
#: in 0..15, a transaction's home lane in 16..23 and its partner lane (on
#: the next shard) in 24..31, so no two clients ever contend for a lock.
SHARD_OBJECTS = 34
TXN_LANE_BASE = 16
TXN_PARTNER_BASE = 24
TXN_EVERY = 10


class Shard4Txn(Workload):
    name = "shard4_txn"

    def build(self) -> None:
        rng = random.Random(self.seed)
        shards = int(self.sizes["shards"])
        per_shard = int(self.sizes["clients_per_shard"])
        per_client = int(self.sizes["ops_per_client"])
        self.sharded = sharded_kv_cluster(
            shards,
            config=BFTConfig(**KV_CONFIG),
            seed=self.seed,
            objects_per_shard=SHARD_OBJECTS,
            net_config=NetworkConfig(delay=0.0005, jitter=0.0005),
        )
        shardmap = self.sharded.shardmap
        singles = TXN_LANE_BASE // per_shard  # single-writer slots per client
        self.plans = []
        self.expected: Dict[int, bytes] = {}  # global index -> last write
        self.txns = 0
        self.committed = 0
        for index in range(shards * per_shard):
            home, lane = index % shards, index // shards
            ops = []
            for number in range(per_client):
                value = _value(rng)
                if number % TXN_EVERY == TXN_EVERY - 1:
                    ops.append(
                        (
                            "TXN",
                            shardmap.global_index(home, TXN_LANE_BASE + lane),
                            shardmap.global_index(
                                (home + 1) % shards, TXN_PARTNER_BASE + lane
                            ),
                            value,
                        )
                    )
                else:
                    slot = lane * singles + rng.randrange(singles)
                    ops.append(("SET", shardmap.global_index(home, slot), value))
            self.plans.append(_Plan(self.sharded.client(f"L{index}"), ops))

    def _issue(self, plan: _Plan, done: Callable[[], None]) -> None:
        op = plan.ops[plan.next - 1]
        if op[0] == "TXN":
            _kind, first, second, value = op
            self.txns += 1
            self.expected[first] = value
            self.expected[second] = value + b"'"

            def on_txn(committed: bool) -> None:
                if committed:
                    self.committed += 1
                else:
                    self.wrong += 1
                done()

            plan.client.invoke_txn_async(
                [(first, value), (second, value + b"'")], on_txn
            )
        else:
            _kind, index, value = op
            self.expected[index] = value

            def on_set(result: bytes) -> None:
                if result != b"OK":
                    self.wrong += 1
                done()

            plan.client.invoke_async(encode_set(index, value), on_set)

    def warm(self) -> None:
        _drive(
            self.sharded.sim,
            self.plans,
            lambda plan: int(len(plan.ops) * WARM_SHARE),
            self._issue,
        )

    def run(self) -> Tuple[float, float]:
        sim = self.sharded.sim
        started = sim.now()
        _drive(sim, self.plans, lambda plan: len(plan.ops), self._issue)
        return started, sim.now()

    def clusters(self) -> List[Cluster]:
        return list(self.sharded.clusters)

    def counters(self) -> Counters:
        return _merged(
            [self.sharded.total_counters()] + _manager_counters(self.sharded.clusters)
        )

    def verify(self) -> List[str]:
        problems = []
        if self.committed != self.txns:
            problems.append(f"{self.txns - self.committed} of {self.txns} transactions aborted")
        checker = self.sharded.client("check")
        for index, value in sorted(self.expected.items()):
            if checker.invoke(encode_get(index), timeout=60.0) != value:
                problems.append(f"object {index} does not hold its writer's last write")
        return problems


# -- a short soak campaign ----------------------------------------------------------------


class WanSoak(Workload):
    """``run_soak`` on ``wan3``: partition storms and a recovery rotation under
    continuous oracles.  The load is the soak probe run as a closed loop that
    never gives up (long timeout), so a stall shows as latency and no op
    fails.  ``run_soak`` owns its deployment: the whole call is the timed
    region and there is no separable warm-up.

    WAN view changes cascade differently for tiny timing changes, and where
    the primary ends up decides the probe's latency (85 to 380 vms).  Five
    storms and a think time well above that latency keep ``ops_per_vsec``
    within a few percent from seed to seed; two storms and a 0.05 s gap had it
    15 % apart."""

    name = "wan_soak"
    PROBE_GAP = 0.5
    PROBE_TIMEOUT = 120.0

    def build(self) -> None:
        steps = tuple(
            FaultStep(
                at=20.0 + cycle * float(self.sizes["cycle_gap"]),
                kind="partition_storm",
                count=3,
                duration=60.0,
            )
            for cycle in range(int(self.sizes["cycles"]))
        )
        self.plan = FaultPlan(
            seed=self.seed,
            requests=0,
            steps=steps,
            topology="wan3",
            recovery_period=float(self.sizes["recovery_period"]),
        )
        self.cluster: Optional[Cluster] = None
        self.report = None

    def run(self) -> Tuple[float, float]:
        build_cluster = soak_runner.recording_cluster

        def capturing(*args, **kwargs):
            self.cluster, recorder = build_cluster(*args, **kwargs)
            return self.cluster, recorder

        soak_runner.recording_cluster = capturing
        try:
            self.report = soak_runner.run_soak(
                self.plan,
                slo=soak_runner.SoakSLO(window=60.0),
                op_timeout=self.PROBE_TIMEOUT,
                gap=self.PROBE_GAP,
            )
        finally:
            soak_runner.recording_cluster = build_cluster
        # The region ends with the campaign, not with run_soak's closing
        # heal-and-settle.
        return 0.0, self.report.horizon

    def clusters(self) -> List[Cluster]:
        return [self.cluster] if self.cluster is not None else []

    def verify(self) -> List[str]:
        problems = [
            f"safety violation: {violation}" for violation in self.report.safety_violations
        ]
        if not self.report.ok:
            problems.append(f"soak verdict not ok: {self.report.slo_violations}")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (KVWrite, KVFastRW, NFSAndrew, Shard4Txn, WanSoak)
}
