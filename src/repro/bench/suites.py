"""Deterministic benchmark suites for ``repro bench``.

Every scenario runs a fixed workload under the seeded discrete-event
simulator, so every metric — ops per virtual second, latency percentiles,
message/byte/hash counts, COW bytes — is a protocol-level quantity that is
bit-identical across runs and hosts.  That is what lets ``repro bench
--compare`` hold a report to its committed baseline byte for byte: any
drift is a real change in protocol work, never scheduler noise.

A scenario is a zero-argument callable returning a flat ``{metric: number}``
dict; a suite is a named list of scenarios.  The drivers the scenarios are
built from — :func:`closed_loop`, :func:`checkpoint_run`,
:func:`overload_rung`, :func:`global_stats` — are public: the paper
experiments in ``benchmarks/`` run on the same ones.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bft.config import VARIANTS, BFTConfig
from repro.bft.fusion import FusedBackupTier
from repro.bft.messages import MESSAGE_STATS
from repro.bft.overload import OpenLoopLoadGenerator, ShardedOpenLoopLoadGenerator
from repro.bft.sharding import sharded_kv_cluster
from repro.bft.testing import encode_get, encode_set, kv_cluster
from repro.crypto.digest import DIGEST_STATS
from repro.explore.plan import (
    OVERLOAD_BANDWIDTH,
    OVERLOAD_CLIENTS,
    OVERLOAD_DURATION,
    OVERLOAD_SUSTAINABLE,
    FaultPlan,
    FaultStep,
)
from repro.net.network import NetworkConfig
from repro.soak.runner import SoakSLO, run_soak
from repro.util.stats import percentile

Metrics = Dict[str, float]

SCENARIOS: Dict[str, Callable[[], Metrics]] = {}


def scenario(name: str) -> Callable[[Callable[[], Metrics]], Callable[[], Metrics]]:
    def register(fn: Callable[[], Metrics]) -> Callable[[], Metrics]:
        SCENARIOS[name] = fn
        return fn

    return register


def _round(value: float) -> float:
    return round(float(value), 6)


@contextmanager
def global_stats() -> Iterator[Dict[str, int]]:
    """Snapshot-diff the process-wide encode and hash counters around a run.

    :data:`repro.bft.messages.MESSAGE_STATS` and
    :data:`repro.crypto.digest.DIGEST_STATS` are module-level (messages hash
    and encode outside any one replica), so a run that reports them must
    isolate its own window.  The yielded dict is filled on exit with the
    counters touched inside the window — read it with ``.get(key, 0)``.
    """
    messages = MESSAGE_STATS.snapshot()
    digests = DIGEST_STATS.snapshot()
    delta: Dict[str, int] = {}
    yield delta
    delta.update(MESSAGE_STATS.diff(messages))
    delta.update(DIGEST_STATS.diff(digests))


def closed_loop(
    cluster, clients, ops_per_client: int, width: int, read_every: int = 0
) -> List[float]:
    """Drive closed-loop SET workloads; returns per-request virtual latencies.
    With ``read_every`` = n, every n-th op of a client is instead a read-only
    GET of a slot drawn from a fixed-seed generator of the workload's own."""
    latencies: List[float] = []
    remaining = {client.node_id: ops_per_client for client in clients}
    slots = random.Random(0)

    def issue(client) -> None:
        sent = cluster.sim.now()
        count = ops_per_client - remaining[client.node_id]
        read_only = bool(read_every) and count % read_every == read_every - 1
        if read_only:
            op = encode_get(slots.randrange(width))
        else:
            op = encode_set(count % width, client.node_id.encode() + bytes([count % 251]))

        def on_reply(_result, client=client, sent=sent) -> None:
            latencies.append(cluster.sim.now() - sent)
            remaining[client.node_id] -= 1
            if remaining[client.node_id] > 0:
                issue(client)

        client.invoke_async(op, on_reply, read_only=read_only)

    for client in clients:
        issue(client)
    finished = cluster.sim.run_until_condition(
        lambda: all(count == 0 for count in remaining.values()), timeout=600
    )
    if not finished:
        raise RuntimeError("benchmark workload did not finish within virtual timeout")
    return latencies


def _kv_throughput(
    num_clients: int,
    report: Tuple[str, ...],
    ops_per_client: int = 25,
    read_every: int = 0,
    **variant,
) -> Metrics:
    """``num_clients`` closed-loop clients, ``ops_per_client`` ops each, on
    one group (``read_every``: see :func:`closed_loop`).  ``report`` names
    the counters a scenario adds to the common metrics, cluster-wide or
    process-wide (the two sets share no name)."""
    with global_stats() as stats:
        cluster = kv_cluster(
            config=BFTConfig(
                checkpoint_interval=16, log_window=64, batch_max=16, **variant
            )
        )
        clients = [cluster.client(f"C{i}") for i in range(num_clients)]
        started = cluster.sim.now()
        latencies = closed_loop(cluster, clients, ops_per_client, 16, read_every)
        elapsed = cluster.sim.now() - started
        cluster.settle(1.0)
    totals = cluster.total_counters()
    ops = len(latencies)
    metrics = {
        "ops": ops,
        "virtual_seconds": _round(elapsed),
        "ops_per_vsec": _round(ops / elapsed),
        "latency_p50_ms": _round(percentile(latencies, 0.50) * 1000.0),
        "latency_p99_ms": _round(percentile(latencies, 0.99) * 1000.0),
        "messages_sent": totals.get("messages_sent"),
        "bytes_sent": totals.get("bytes_sent"),
    }
    for name in report:
        metrics[name] = stats.get(name, totals.get(name))
    return metrics


@scenario("kv_throughput")
def kv_throughput() -> Metrics:
    """Closed-loop agreement throughput: 4 clients, 25 ops each.

    The headline cache metric is ``encodes_per_send``: each distinct message
    serializes once however many recipients its broadcast fans out to, so the
    ratio sits well below 1 (it was > 1 when every send re-encoded).
    """
    metrics = _kv_throughput(
        4,
        (
            "message_encodes",
            "message_encode_bytes",
            "mac_generate",
            "mac_verify",
            "key_derivations",
            "digests",
            "digest_combines",
        ),
    )
    metrics["encodes_per_send"] = _round(
        metrics["message_encodes"] / max(metrics["messages_sent"], 1)
    )
    return metrics


@scenario("kv_throughput_fast")
def kv_throughput_fast() -> Metrics:
    """Closed-loop throughput with the RECIPE-style fast path on: pipelined
    ordering (depth 8) plus speculative execution, driven by 16 clients so
    the deeper pipeline actually fills.  Replies are accepted at the
    tentative 2f+1 quorum — one network round-trip ahead of the committed
    path — so ``ops_per_vsec`` must sit several times above the baseline
    ``kv_throughput`` figure; ``spec_promotions`` tracking ``spec_batches``
    shows the speculation held (nothing rolled back in a fault-free run).
    """
    return _kv_throughput(
        16,
        (
            "spec_batches",
            "spec_promotions",
            "spec_rollbacks",
            "tentative_replies_accepted",
        ),
        **VARIANTS["speculation"].overrides,
    )


_READ_PATH = ("read_only_fallbacks", "reads_parked", "leased_reads_served", "lease_grants")


@scenario("kv_mixed")
def kv_mixed() -> Metrics:
    """Mixed traffic on the slow path: 16 closed-loop clients, 50 ops each,
    every other op a read-only GET answered outside the ordering path at
    2f+1 matching replies.  A GET that races a SET of its slot mismatches
    and waits out ``read_only_timeout`` (``read_only_fallbacks``)."""
    return _kv_throughput(16, _READ_PATH, ops_per_client=50, read_every=2)


@scenario("kv_mixed_fast")
def kv_mixed_fast() -> Metrics:
    """The same traffic with the whole fast path on (pipelining, speculation,
    read leases).  A GET that meets tentative state or a revoked lease is
    parked at the replica (``reads_parked``) and answered when the state
    commits, so none may fall back; ``benchmarks/test_suite_claims.py`` holds
    this scenario level with ``kv_mixed`` in virtual time."""
    return _kv_throughput(
        16, _READ_PATH, ops_per_client=50, read_every=2, **VARIANTS["fast-path"].overrides
    )


def checkpoint_run(num_slots: int) -> Metrics:
    """Fixed write-set workload (8 hot slots) against a tree of num_slots.

    Counters are diffed across the workload only, so the one-time O(n) tree
    initialization does not pollute the per-checkpoint figures.
    """
    cluster = kv_cluster(
        config=BFTConfig(checkpoint_interval=8, log_window=32),
        num_slots=num_slots,
    )
    baseline = cluster.service("R0").manager.counters.snapshot()
    client = cluster.client("C0")
    for i in range(64):
        client.invoke(encode_set(i % 8, bytes([i % 251]) * 64), timeout=60)
    cluster.settle(1.0)
    counters = cluster.service("R0").manager.counters.diff(baseline)
    checkpoints = max(counters.get("checkpoints_taken", 0), 1)
    return {
        "checkpoints_taken": counters.get("checkpoints_taken", 0),
        "checkpoint_digests": counters.get("checkpoint_digests", 0),
        "checkpoint_hashes_avoided": counters.get("checkpoint_hashes_avoided", 0),
        "cow_copies": counters.get("cow_copies", 0),
        "cow_bytes": counters.get("cow_bytes", 0),
        "cow_upcalls_avoided": counters.get("cow_upcalls_avoided", 0),
        "tree_nodes_copied": counters.get("tree_nodes_copied", 0),
        "tree_nodes_copied_per_checkpoint": _round(
            counters.get("tree_nodes_copied", 0) / checkpoints
        ),
    }


@scenario("checkpoint_cow")
def checkpoint_cow() -> Metrics:
    """Checkpoint cost versus total state size.

    The same 8-slot write set runs against 64- and 512-object trees; with
    persistent path-copy snapshots the per-checkpoint tree work tracks
    modified · log n, so the large-tree/small-tree ratio stays near 1 (a full
    snapshot copy would make it track n: 8x here).
    """
    small = checkpoint_run(64)
    large = checkpoint_run(512)
    metrics = {f"small_{key}": value for key, value in small.items()}
    metrics.update({f"large_{key}": value for key, value in large.items()})
    metrics["copy_scaling_ratio"] = _round(
        large["tree_nodes_copied_per_checkpoint"]
        / max(small["tree_nodes_copied_per_checkpoint"], 1)
    )
    return metrics


@scenario("state_transfer")
def state_transfer() -> Metrics:
    """Hierarchical catch-up: a replica misses 40 ops beyond its log window
    and rejoins via state transfer, fetching only modified objects."""
    cluster = kv_cluster(
        config=BFTConfig(checkpoint_interval=8, log_window=16), num_slots=32
    )
    client = cluster.client("C0")
    for i in range(5):
        client.invoke(encode_set(i % 8, bytes([i % 251])), timeout=60)
    cluster.crash("R3")
    for i in range(40):
        client.invoke(encode_set(i % 8, bytes([1, i % 251])), timeout=60)
    cluster.restart("R3")
    cluster.settle(5.0)
    r3 = cluster.replica("R3")
    return {
        "transfers_completed": r3.counters.get("state_transfers_completed"),
        "objects_fetched": r3.counters.get("objects_fetched"),
        "fetch_meta_sent": r3.counters.get("fetch_meta_sent"),
        "fetch_object_sent": r3.counters.get("fetch_object_sent"),
        "bytes_sent": cluster.total_counters().get("bytes_sent"),
    }


def _run_swarm(system, swarm) -> int:
    """Drive one swarm rung against ``system`` (a cluster or a sharded
    cluster): squeeze every group's links to :data:`OVERLOAD_BANDWIDTH`, run
    the swarm for :data:`OVERLOAD_DURATION`, unsqueeze, drain, and return how
    many requests the groups' primaries executed meanwhile."""

    def executed() -> int:
        return sum(
            cluster.replica("R0").counters.get("requests_executed")
            for cluster in system.clusters
        )

    before = executed()
    for cluster in system.clusters:
        cluster.network.config.bandwidth = OVERLOAD_BANDWIDTH
    swarm.start()
    system.sim.run_for(OVERLOAD_DURATION)
    swarm.stop()
    for cluster in system.clusters:
        cluster.network.config.bandwidth = 0.0
    system.sim.run_for(0.5)  # drain in-flight work before reading counters
    return executed() - before


def overload_rung(rate: float) -> Metrics:
    """One rung of the overload ladder: an open-loop swarm offers ``rate``
    requests/second for :data:`OVERLOAD_DURATION` virtual seconds against
    links squeezed to :data:`OVERLOAD_BANDWIDTH` bytes/vsec.

    ``goodput_per_vsec`` (requests the primary actually executes) is the
    figure of merit: below saturation it tracks the offered rate; past
    saturation it must *plateau* — not collapse — while the admission queue
    sheds the excess (``requests_shed`` grows) and the view number never
    moves (``view_changes_started`` stays zero).  ``completed`` is the
    client-side view, which open-loop cadence cancellation drives to zero
    under deep overload even while the cluster keeps committing.
    """
    cluster = kv_cluster(
        config=BFTConfig(checkpoint_interval=16, log_window=64, batch_max=16),
        net_config=NetworkConfig(delay=0.0005, jitter=0.0005),
    )

    def swarm_op(client_id: str, seq: int) -> bytes:
        return encode_set(seq % 16, f"{client_id}:{seq}".encode())

    # Warm the pipeline first: damping demands evidence of a live primary (a
    # recent commit), which a cold cluster cannot have.
    cluster.client("C0").invoke(encode_set(0, b"warm"))
    clients = [cluster.client(f"L{i}") for i in range(OVERLOAD_CLIENTS)]
    swarm = OpenLoopLoadGenerator(cluster.sim, clients, rate, swarm_op)
    executed = _run_swarm(cluster, swarm)
    totals = cluster.total_counters()
    return {
        "offered": swarm.offered,
        "completed": swarm.completed,
        "executed": executed,
        "goodput_per_vsec": _round(executed / OVERLOAD_DURATION),
        "requests_shed": totals.get("requests_shed"),
        "busy_replies": totals.get("busy_replies"),
        "pending_evicted": totals.get("pending_evicted"),
        "pending_superseded": totals.get("pending_superseded"),
        "view_changes_started": totals.get("view_changes_started"),
        "view_changes_damped": totals.get("view_changes_damped"),
        "messages_dropped_link_overflow": totals.get("messages_dropped_link_overflow"),
    }


#: The overload ladder: below saturation, at 2x, and at 6x the sustainable
#: rate (see OVERLOAD_SUSTAINABLE calibration in repro.explore.plan).
OVERLOAD_LADDER = (
    0.8 * OVERLOAD_SUSTAINABLE,
    2.0 * OVERLOAD_SUSTAINABLE,
    6.0 * OVERLOAD_SUSTAINABLE,
)

for _rate in OVERLOAD_LADDER:
    scenario(f"overload_{int(_rate)}")(lambda rate=_rate: overload_rung(rate))


#: Seed shared by the three ``wan`` scenarios: identical protocol randomness,
#: so the only variable across them is the fault schedule / rotation.
_WAN_SEED = 1202


#: The shared storm schedule for ``wan_storm`` / ``wan_storm_rotation``: a
#: 3-cut partition storm overlapping a ramped flash crowd.
_WAN_STORM_STEPS = (
    FaultStep(at=20.0, kind="partition_storm", count=3, duration=60.0),
    FaultStep(at=30.0, kind="flash_crowd", rate=16.0, clients=4, duration=80.0),
)


def _wan_run(steps, recovery_period: float) -> Metrics:
    """One soak-judged campaign on the ``wan3`` preset (probe gap 1s,
    60-second SLO windows so even the short bench horizon yields several)."""
    plan = FaultPlan(
        seed=_WAN_SEED,
        requests=0,
        steps=steps,
        topology="wan3",
        recovery_period=recovery_period,
    )
    report = run_soak(plan, slo=SoakSLO(window=60.0))
    return {
        "probe_ops": report.probe_ops,
        "availability": _round(report.availability),
        "min_window_availability": _round(report.min_window_availability),
        "max_outage_span": _round(report.max_outage_span),
        "events": report.events,
        "view_changes_started": report.counters.get("view_changes_started") or 0,
        "view_changes_damped": report.counters.get("view_changes_damped") or 0,
        "recoveries_started": report.counters.get("recoveries_started") or 0,
        "storm_cuts": report.counters.get("storm_cuts") or 0,
        "messages_dropped_cut": report.counters.get("messages_dropped_cut") or 0,
        "swarm_offered": report.swarm_offered,
        "swarm_completed": report.swarm_completed,
        "slo_violations": len(report.slo_violations),
        "safety_violations": len(report.safety_violations),
    }


@scenario("wan_baseline")
def wan_baseline() -> Metrics:
    """Fault-free geo baseline: the availability probe alone on ``wan3``.

    Pins what cross-region consensus costs with nothing going wrong —
    availability must be 1.0 and the view number must never move; every
    other wan scenario is read against this floor."""
    return _wan_run((), recovery_period=0.0)


@scenario("wan_storm")
def wan_storm() -> Metrics:
    """Partition storm + flash crowd on ``wan3``, no proactive rotation.

    Correlated region-boundary cuts land mid flash-crowd; availability dips
    while cuts hold and recovers when they heal.  ``storm_cuts`` and
    ``messages_dropped_cut`` pin the storm geometry byte-exactly."""
    return _wan_run(_WAN_STORM_STEPS, recovery_period=0.0)


@scenario("wan_storm_rotation")
def wan_storm_rotation() -> Metrics:
    """The identical storm with staggered proactive rotation (period 120s).

    Rotation windows overlap the cuts, so this pins the interesting
    composition: reboots during partial connectivity must neither wedge the
    protocol (``safety_violations`` stays 0) nor collapse availability
    relative to ``wan_storm``."""
    return _wan_run(_WAN_STORM_STEPS, recovery_period=120.0)


#: Per-shard slot layout for the ``shard`` suite (objects_per_shard = 34,
#: the 35th cell being the reserved 2PC participant table): singles write
#: slots 0..15; a cross-shard transaction locks its client's home lane
#: (16..23) on the home shard and the matching partner lane (24..31) on the
#: next shard, so no two clients' transactions ever contend for a lock;
#: warm-up writes slot 32.  Keeping all the sets disjoint keeps the scaling
#: figure about ordering capacity, not lock contention.
_SHARD_SINGLE_SLOTS = 16
_SHARD_TXN_LANE_BASE = 16
_SHARD_TXN_PARTNER_BASE = 24
_SHARD_WARM_SLOT = 32


def _shard_rung(num_shards: int, txn_fraction: float = 0.0) -> Metrics:
    """One rung of the shard-scaling ladder: an open-loop swarm with the
    identical per-shard shape (:data:`OVERLOAD_CLIENTS` clients per shard,
    offering 2x the sustainable rate per shard) runs against ``num_shards``
    independent BASE groups, each squeezed to :data:`OVERLOAD_BANDWIDTH`.

    Clients and offered load both scale with the shard count — that is the
    controlled experiment a scaling claim needs: every group sees the same
    saturation the one-group rung does, and the only variable is how many
    groups are ordering.  Aggregate ``goodput_per_vsec`` (requests executed
    across all shard primaries) must track the shard count near-linearly at
    ``txn_fraction`` 0; with a 10% cross-shard transaction mix the 2PC
    prepares/decides consume ordering slots on two groups each, so the curve
    flattens but must stay well above the one-group figure.
    """
    sharded = sharded_kv_cluster(
        num_shards,
        config=BFTConfig(checkpoint_interval=16, log_window=64, batch_max=16),
        objects_per_shard=34,
        net_config=NetworkConfig(delay=0.0005, jitter=0.0005),
    )
    shardmap = sharded.shardmap

    def home_of(client_id: str) -> int:
        return int(client_id[1:]) % num_shards

    def swarm_op(client_id: str, seq: int) -> bytes:
        index = shardmap.global_index(home_of(client_id), seq % _SHARD_SINGLE_SLOTS)
        return encode_set(index, f"{client_id}:{seq}".encode())

    def swarm_txn(client_id: str, seq: int):
        home = home_of(client_id)
        lane = (int(client_id[1:]) // num_shards) % OVERLOAD_CLIENTS
        value = f"{client_id}:{seq}".encode()
        first = shardmap.global_index(home, _SHARD_TXN_LANE_BASE + lane)
        if num_shards == 1:
            return [(first, value)]
        other = shardmap.global_index(
            (home + 1) % num_shards, _SHARD_TXN_PARTNER_BASE + lane
        )
        return [(first, value), (other, value + b"'")]

    # Warm every group's pipeline: overload damping demands evidence of a
    # live primary (a recent commit), which a cold group cannot have.
    warm = sharded.client("W0")
    for shard in range(num_shards):
        warm.invoke(
            encode_set(shardmap.global_index(shard, _SHARD_WARM_SLOT), b"warm"),
            timeout=60.0,
        )
    clients = [
        sharded.client(f"L{i}") for i in range(OVERLOAD_CLIENTS * num_shards)
    ]
    swarm = ShardedOpenLoopLoadGenerator(
        sharded.sim,
        clients,
        2.0 * OVERLOAD_SUSTAINABLE * num_shards,
        swarm_op,
        txn_fraction=txn_fraction,
        txn_factory=swarm_txn,
    )
    executed = _run_swarm(sharded, swarm)
    totals = sharded.total_counters()
    return {
        "shards": num_shards,
        "offered": swarm.offered,
        "completed": swarm.completed,
        "executed": executed,
        "goodput_per_vsec": _round(executed / OVERLOAD_DURATION),
        "txns_started": swarm.txns_started,
        "txns_committed": swarm.txns_committed,
        "txns_aborted": swarm.txns_aborted,
        "txns_skipped": swarm.txns_skipped,
        "txn_lock_conflicts": totals.get("txn_lock_conflicts"),
        "requests_shed": totals.get("requests_shed"),
        "busy_replies": totals.get("busy_replies"),
        "view_changes_started": totals.get("view_changes_started"),
        "messages_sent": totals.get("messages_sent"),
        "bytes_sent": totals.get("bytes_sent"),
    }


def _fusion_cluster():
    """Four BASE groups with the fused-backup tier attached and every data
    slot filled with near-slot-width values — the regime the tier's storage
    claim is about (toy values would let fixed per-cell padding dominate)."""
    sharded = sharded_kv_cluster(
        4,
        config=BFTConfig(checkpoint_interval=16, log_window=64),
        objects_per_shard=32,
        net_config=NetworkConfig(delay=0.0005, jitter=0.0005),
        seed=7,
    )
    tier = FusedBackupTier(sharded)
    tier.attach()
    sharded.settle(1.0)
    client = sharded.client("B0")
    value = bytes(range(84))
    # 32 writes per shard: executed == stable == 32, a checkpoint boundary,
    # so the tier's parity is exactly current when the measurements run.
    for shard in range(4):
        for slot in range(32):
            client.invoke(encode_set(shard * 32 + slot, value), timeout=60.0)
    sharded.settle(2.0)
    return sharded, tier, client


@scenario("fusion_overhead")
def fusion_overhead() -> Metrics:
    """Storage cost of the fused tier against the alternative it replaces:
    one additional full replica per group.  ``storage_ratio`` is the headline
    — bounded at 0.5 in CI, ~1/num_shards by construction."""
    sharded, tier, _client = _fusion_cluster()
    node = tier.node
    fused = tier.storage_bytes()
    full = tier.abstract_state_bytes()
    totals = sharded.total_counters()
    return {
        "fused_storage_bytes": fused,
        "full_replica_bytes": full,
        "storage_ratio": _round(fused / full),
        "parity_checkpoint_seqno": min(node.applied.values()),
        "updates_sent": totals.get("fusion_updates_sent"),
        "updates_applied": totals.get("fusion_updates_applied"),
        "update_bytes": totals.get("fusion_update_bytes"),
        "messages_sent": totals.get("messages_sent"),
        "bytes_sent": totals.get("bytes_sent"),
    }


@scenario("fusion_reconstruction")
def fusion_reconstruction() -> Metrics:
    """Catastrophic loss of one group (processes and disks) and the fused
    rebuild: time to repair, transfer volume, and proof the rebuilt state
    matched the group's latest checkpoint certificate and resumed service."""
    sharded, tier, client = _fusion_cluster()
    sharded.destroy_group(1)
    finished = sharded.sim.run_until_condition(tier.idle, timeout=60.0)
    if not finished or not tier.reconstructions:
        raise RuntimeError("fused reconstruction did not finish")
    record = tier.reconstructions[0]
    sharded.settle(0.5)
    resumed = client.invoke(
        encode_set(32, b"post-rebuild-probe"), timeout=60.0
    ) == b"OK"
    totals = sharded.total_counters()
    return {
        "reconstruction_vseconds": _round(record.mttr or 0.0),
        "target_seqno": record.target_seqno,
        "blocks_fetched": record.blocks_fetched,
        "block_bytes_fetched": record.bytes_fetched,
        "root_match": 1.0 if record.ok else 0.0,
        "replicas_seeded": totals.get("fusion_replicas_seeded"),
        "resumed": 1.0 if resumed else 0.0,
        "messages_sent": totals.get("messages_sent"),
        "bytes_sent": totals.get("bytes_sent"),
    }


#: The shard-scaling ladder: 1 -> 2 -> 4 -> 8 groups at pure single-shard
#: load, plus the 8-group rung again with a 10% cross-shard transaction mix.
SHARD_LADDER = (1, 2, 4, 8)

for _shards in SHARD_LADDER:
    scenario(f"shard_scale_{_shards}")(lambda n=_shards: _shard_rung(n))

scenario("shard_scale_8_mix10")(lambda: _shard_rung(8, txn_fraction=0.10))


SUITES: Dict[str, List[str]] = {
    "smoke": [
        "kv_throughput",
        "kv_throughput_fast",
        "kv_mixed",
        "kv_mixed_fast",
        "checkpoint_cow",
        "state_transfer",
    ],
    "overload": [f"overload_{int(rate)}" for rate in OVERLOAD_LADDER],
    "wan": [
        "wan_baseline",
        "wan_storm",
        "wan_storm_rotation",
    ],
    "shard": [f"shard_scale_{n}" for n in SHARD_LADDER] + ["shard_scale_8_mix10"],
    "fusion": [
        "fusion_overhead",
        "fusion_reconstruction",
    ],
}


def run_suite(
    name: str, log: Optional[Callable[[str], None]] = None
) -> Dict[str, Metrics]:
    """Run every scenario of suite ``name``; returns scenario -> metrics."""
    results: Dict[str, Metrics] = {}
    for scenario_name in SUITES[name]:
        if log is not None:
            log(f"bench: running {scenario_name} ...")
        results[scenario_name] = SCENARIOS[scenario_name]()
    return results
