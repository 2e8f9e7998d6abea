"""The fault-plan interpreter: two tables, two plan rules, one session.

Every way of running a :class:`~repro.explore.plan.FaultPlan` goes through
this module.  ``STEP_TABLE`` is the only place that knows a step kind: its
family, applier, the deployments it is valid on and what a step of it must
carry.  ``DEPLOYMENTS`` is the only place that knows a deployment (``single``:
one BASE group under the explore workload; ``sharded``: several groups plus
the 2PC layer, fault steps landing on shard 0; ``soak``: one group under the
availability probe): its base configuration, build, oracles, planted bugs,
workload and verdict counters.  :func:`check_supported` rejects a malformed
plan, or one a deployment cannot run, before any cluster is built; a
:class:`Session` installs the oracle suite, schedules the plan's steps onto
the deployment's simulator, and runs the heal-and-sweep epilogue
(docs/simulation.md has both tables and the two rules).

Everything is deterministic: storm geometry derives arithmetically from the
plan seed and the step's own fields (no wall clock, no builtin ``hash``), so
an artifact replays byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.bft.client import InvocationTimeout
from repro.bft.config import SHARDED, SINGLE, SOAK, VARIANTS, BFTConfig, variant_of
from repro.bft.messages import CheckpointCert
from repro.bft.overload import OpenLoopLoadGenerator
from repro.bft.repair import RepairPolicy
from repro.bft.sharding import sharded_recording_cluster
from repro.bft.testing import canonical_committed_history, encode_set
from repro.crypto.digest import digest
from repro.explore.oracles import AvailabilityWatch, OracleSuite, SoakSLO
from repro.explore.plan import (
    BENIGN,
    BYZANTINE,
    CAMPAIGN,
    DESTRUCTION,
    IMPLEMENTATION,
    OPT_IN_FAMILIES,
    OVERLOAD,
    REPLICA_IDS,
    STEP_FIELDS,
    FaultPlan,
    FaultStep,
)
from repro.faults import (
    POISON,
    drop_fraction_from,
    make_equivocating_primary,
    make_lying_checkpointer,
    make_result_corruptor,
    make_vote_corruptor,
)
from repro.faults.aging import DEFAULT_PER_OP_STALL, FragmentationAging
from repro.faults.plant import PLANTED_BUGS, SHARDED_PLANTED_BUGS
from repro.faults.scenarios import AvailabilityProbe
from repro.net.network import NetworkConfig
from repro.net.topology import PRESETS, PlacedTopology, topology_preset

# Single-group slot layout (32 cells): the explore workload writes 0..7,
# corrupt_object maps its index into 8..23 so the corruption stays silent
# instead of being overwritten by the workload, overload and flash-crowd
# swarms write 24..29 (each op's value embeds the swarm client id and a
# per-client sequence number so the prefix oracle's per-client-unique-op
# requirement holds), the poison request is a SET of slot 30, and the
# liveness / availability probe owns slot 31.
_CORRUPT_SLOT_BASE = 8
_CORRUPT_SLOT_SPAN = 16
_SWARM_SLOT_BASE = 24
_SWARM_SLOT_SPAN = 6
_POISON_SLOT = 30
PROBE_SLOT = 31

#: Sharded slot layout (objects_per_shard = 8, slot 8 of each shard being the
#: reserved participant table): singles write slots 0..5, cross-shard
#: transactions write slot 6, liveness and alignment probes slot 7.
OBJECTS_PER_SHARD = 8
SHARD_TXN_SLOT = 6
SHARD_PROBE_SLOT = 7

#: WAN-tuned protocol timers: inter-region one-way latencies approach 0.1s,
#: so the LAN defaults (250ms view-change patience, 50ms gossip) would turn
#: ordinary cross-region commits into view-change churn.  Applied whenever
#: the plan names a topology; a flat plan's configuration is untouched.
WAN_CONFIG_OVERRIDES: Dict[str, object] = {
    "view_change_timeout": 1.5,
    "status_interval": 0.5,
    "client_retry": 0.5,
    "client_retry_max": 2.0,
    "pending_ttl": 5.0,
}

#: Virtual seconds a campaign runs past its last step's activity.
CAMPAIGN_TAIL = 60.0

#: Rate multipliers over a flash crowd's duration (equal-width segments): the
#: swarm ramps to the step's peak ``rate`` at the midpoint and back down —
#: the diurnal-burst shape, discretised.
FLASH_RAMP: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.0, 0.75, 0.5, 0.25)


def deployment_configs(
    plan: FaultPlan, fields: Dict, overrides: Optional[Dict] = None
) -> Tuple[BFTConfig, NetworkConfig]:
    """The protocol and network configuration a plan's clusters are built
    with: the entry point's base ``fields``, the plan's own parameters, the
    WAN timers iff it names a topology, then the caller's ``overrides``."""
    merged = dict(fields, recovery_period=plan.recovery_period)
    if plan.topology:
        merged.update(WAN_CONFIG_OVERRIDES)
    merged.update(overrides or {})
    return BFTConfig(**merged), NetworkConfig(
        delay=0.0005, jitter=0.0005, drop_rate=plan.drop_rate
    )


class Session:
    """One plan on one deployment: oracles installed, steps schedulable.

    ``system`` is the caller-built deployment (a ``Cluster`` or, for
    ``SHARDED``, a ``ShardedCluster``) and ``recorders`` its history
    recorders in group order; the ``deployment`` row names the oracles
    installed over them.  The session owns everything the appliers share:
    drop interceptors, open-loop swarms, the placed topology, storm cuts, the
    aging model, flagged destroy steps and the fused-backup tier.
    """

    def __init__(
        self,
        plan: FaultPlan,
        system,
        recorders: List,
        deployment: str,
        check_interval: int,
        poisoned: Optional[Set[str]] = None,
    ) -> None:
        self.plan = plan
        self.system = system
        self.recorders = recorders
        self.sim = system.sim
        self.clusters = system.clusters
        # Fault steps land on group 0; the other shards stay fault-free,
        # which is exactly what makes cross-shard violations attributable.
        self.cluster = self.clusters[0]
        self.placed: Optional[PlacedTopology] = None
        if plan.topology:
            self.placed = PlacedTopology(
                topology_preset(plan.topology), self.cluster.network
            )
            self.placed.compile()
        oracles = DEPLOYMENTS[deployment].oracles
        self.suite = OracleSuite(
            system, recorders, oracles, targets(plan, BYZANTINE), check_interval
        )
        self.suite.install()
        if plan.perturb_seed is not None:
            self.sim.set_tiebreak(random.Random(plan.perturb_seed), window=4)
        self.poisoned = poisoned  # armed implementations (poison_request)
        self.poison_requests = 0
        self.drop_removers: List[Callable[[], None]] = []
        self.swarms: List[OpenLoopLoadGenerator] = []
        # (region_a, region_b, links) for cuts currently held by storms.
        self.storm_cuts: List[Tuple[str, str, List[Tuple[str, str]]]] = []
        self.aging: Optional[FragmentationAging] = None
        self.pending_destroys: List[FaultStep] = []
        self.tier = None  # the FusedBackupTier, attached by arm() when needed

    def client(self, client_id: str):
        """Get-or-create a client, placed into the topology when there is one."""
        if self.placed is not None:
            self.placed.place_client(client_id)
        return self.system.client(client_id)

    def new_swarm(self, prefix: str, step: FaultStep, rate: float):
        """An open-loop swarm of ``step.clients`` fresh clients, not yet started."""
        index = len(self.swarms)
        clients = [self.client(f"{prefix}{index}-{i}") for i in range(step.clients)]
        swarm = OpenLoopLoadGenerator(self.sim, clients, rate, _swarm_op)
        self.swarms.append(swarm)
        return swarm

    def offered(self) -> int:
        return sum(swarm.offered for swarm in self.swarms)

    def completed(self) -> int:
        return sum(swarm.completed for swarm in self.swarms)

    def arm(self) -> None:
        """Schedule every step of the plan at its fire time; a destruction
        plan then gets its fused-backup tier (steps timed inside the parity
        bootstrap fire during it)."""
        for step in self.plan.steps:
            apply = STEP_TABLE[step.kind].apply
            self.sim.schedule(max(0.0, step.at), lambda s=step, a=apply: a(self, s))
        if DESTRUCTION in families(self.plan):
            # Imported here: only destruction plans pay for loading the codec.
            from repro.bft.fusion import FusedBackupTier

            self.tier = FusedBackupTier(self.system)
            self.tier.attach()
            self.system.settle(0.5)  # let the parity bootstrap finish before load

    def start_rotation(self) -> None:
        """Arm the staggered proactive-recovery watchdogs (plan permitting)."""
        if self.plan.recovery_period > 0:
            for cluster in self.clusters:
                cluster.start_proactive_recovery()

    def drain_destroys(self, client) -> None:
        """Execute the ``destroy_group`` steps that have fired: align, wipe,
        await the rebuild.  Called between requests, never mid-invocation."""
        while self.pending_destroys:
            shard = self.pending_destroys.pop(0).index % len(self.clusters)
            if not self._align_for_destroy(client, shard):
                self.tier.counters.add("fusion_destroys_skipped")
                continue
            self.system.destroy_group(shard)
            self.sim.run_until_condition(self.tier.idle, timeout=60.0)
            self.system.settle(0.5)

    def _align_for_destroy(self, client, shard: int) -> bool:
        """Drive the victim group to a quiescent stable-checkpoint boundary
        with the fused tier fully current, so the loss destroys no
        acknowledged state (RPO = 0) and every safety oracle keeps holding
        unconditionally through the rebuild.  Pads with probe writes until
        all replicas of the group sit at the same ``last_executed`` which is
        stable and on a checkpoint boundary, and the tier's parity has
        absorbed that checkpoint.  Returns False when alignment cannot be
        reached inside the attempt budget (an active fault kept the group
        from settling); the destroy is then skipped rather than tolerate data
        loss the oracles would have to excuse.
        """
        cluster = self.clusters[shard]
        interval = cluster.config.checkpoint_interval
        probe = self.system.shardmap.global_index(shard, SHARD_PROBE_SLOT)
        for _ in range(6 * interval):
            self.system.settle(0.25)
            states = [
                (host.replica.last_executed, host.replica.stable_seqno)
                for _rid, host in sorted(cluster.hosts.items())
            ]
            executed, stable = states[0]
            if (
                all(s == states[0] for s in states)
                and executed > 0
                and executed % interval == 0
                and stable == executed
                and self.tier.node.applied.get(shard) == stable
            ):
                return True
            try:
                client.invoke(encode_set(probe, b"align"), timeout=8.0)
            except InvocationTimeout:
                client.cancel()
        return False

    def heal_and_sweep(self, settle: float) -> None:
        """The epilogue: stop the plan's load, heal every fault it may have
        left behind, let the system settle, and sweep the oracles once."""
        for swarm in self.swarms:
            swarm.stop()
        for _a, _b, links in self.storm_cuts:
            self.cluster.network.restore_links(links)
        self.storm_cuts = []
        if self.aging is not None:
            self.aging.disarm()
        for remove in list(self.drop_removers):
            remove()
        for cluster in self.clusters:
            cluster.heal()
            cluster.restart_all_down()
            cluster.network.config.drop_rate = 0.0
        self.system.settle(settle)
        self.suite.sweep()


# -- appliers -------------------------------------------------------------------


def _swarm_op(client_id: str, seq: int) -> bytes:
    return encode_set(
        _SWARM_SLOT_BASE + seq % _SWARM_SLOT_SPAN, f"{client_id}:{seq}".encode()
    )


def _drop(session: Session, step: FaultStep) -> None:
    remove = drop_fraction_from(session.cluster.network, step.target, step.fraction)
    session.drop_removers.append(remove)

    def expire() -> None:
        remove()
        if remove in session.drop_removers:
            session.drop_removers.remove(remove)

    session.sim.schedule(step.duration, expire)


def _arm(make: Callable) -> Callable[[Session, FaultStep], None]:
    return lambda session, step: make(session.cluster.replica(step.target))


def _fabricate_cert(session: Session, step: FaultStep) -> None:
    """Byzantine step: send one victim a certificate with a garbage digest
    (no valid proof quorum — only an implementation that skips verification
    will believe it).

    Prefer a sequence number some replica has already checkpointed honestly
    but the victim has not yet stabilized: a victim that swallows the lie
    then conflicts with existing honest evidence and the checkpoint-stability
    oracle fires at once.  Otherwise aim at the next checkpoint boundary.
    """
    cluster = session.cluster
    victims = [rid for rid in sorted(cluster.hosts) if rid != step.target]
    if not victims:
        return
    victim = victims[0]
    victim_stable = cluster.replica(victim).stable_seqno
    checkpointed = [
        seqno
        for host in cluster.hosts.values()
        for seqno in host.replica.own_checkpoints
        if seqno > victim_stable
    ]
    if checkpointed:
        target = max(checkpointed)
    else:
        interval = cluster.config.checkpoint_interval
        base = max(host.replica.last_executed for host in cluster.hosts.values())
        target = (base // interval + 1) * interval
    cert = CheckpointCert(
        seqno=target, state_digest=digest(b"fabricated-checkpoint"), proof=[]
    )
    cluster.replica(step.target).send(victim, cert)


def _poison_request(session: Session, step: FaultStep) -> None:
    # Arm the target's implementation, then drive the poisonous request
    # through a dedicated client; the other replicas execute it fine (the
    # client gets its reply quorum) while the target crashes.
    session.poisoned.add(step.target)
    session.poison_requests += 1
    client = session.client(f"P{session.poison_requests}")
    client.invoke_async(encode_set(_POISON_SLOT, POISON), lambda _reply: None)


def _corrupt_object(session: Session, step: FaultStep) -> None:
    # Flip a value in the target's concrete state *without* a modify()
    # upcall: the partition tree keeps the stale digest, so checkpoints stay
    # honest and only the scrubber can notice.
    cells = session.cluster.service(step.target).cells
    if len(cells) >= _CORRUPT_SLOT_BASE + _CORRUPT_SLOT_SPAN:
        index = _CORRUPT_SLOT_BASE + step.index % _CORRUPT_SLOT_SPAN
    else:
        index = step.index % len(cells)
    cells[index] = cells[index] + b"\xff<bitrot>"


def _overload(session: Session, step: FaultStep) -> None:
    swarm = session.new_swarm("L", step, step.rate)
    net_config = session.cluster.network.config
    previous_bandwidth = net_config.bandwidth
    if step.bandwidth > 0:
        net_config.bandwidth = step.bandwidth
    snapshot = session.suite.begin_overload(strict=families(session.plan) == {OVERLOAD})
    swarm.start()

    def end_overload() -> None:
        swarm.stop()
        if step.bandwidth > 0:
            net_config.bandwidth = previous_bandwidth
        session.suite.end_overload(snapshot)

    session.sim.schedule(step.duration, end_overload)


def _region_outage(session: Session, step: FaultStep) -> None:
    cluster = session.cluster
    victims = session.placed.region_replicas(step.region)
    cluster.network.counters.add("region_outages")
    for replica_id in victims:
        cluster.crash(replica_id)

    def restore() -> None:
        for replica_id in victims:
            cluster.restart(replica_id)

    session.sim.schedule(step.duration, restore)


def storm_rng(plan_seed: int, step: FaultStep) -> random.Random:
    """Seeded RNG for one storm's geometry: a pure arithmetic mix of the
    plan seed and the step's fields, so the same plan always produces the
    same correlated cuts (and two storms in one plan produce different
    ones)."""
    mix = (
        plan_seed * 1_000_003
        + step.count * 8_191
        + int(round(step.at * 10_000))
        + int(round(step.duration * 100))
    ) % (2**31)
    return random.Random(mix)


def _partition_storm(session: Session, step: FaultStep) -> None:
    placed, network = session.placed, session.cluster.network
    rng = storm_rng(session.plan.seed, step)
    boundaries = placed.boundaries()
    for _ in range(step.count):
        region_a, region_b = boundaries[rng.randrange(len(boundaries))]
        start = round(rng.uniform(0.0, 0.7) * step.duration, 4)
        length = round(rng.uniform(0.1, 0.3) * step.duration, 4)
        end = min(step.duration, start + length)

        def cut(a: str = region_a, b: str = region_b) -> None:
            # Cut sets are computed at cut time so clients placed after
            # the storm was scheduled are severed too.
            links = placed.boundary_links(a, b)
            network.counters.add("storm_cuts")
            network.cut_links(links)
            session.storm_cuts.append((a, b, links))

        def heal(a: str = region_a, b: str = region_b) -> None:
            for index, (ra, rb, links) in enumerate(session.storm_cuts):
                if (ra, rb) == (a, b):
                    network.restore_links(links)
                    del session.storm_cuts[index]
                    return

        session.sim.schedule(start, cut)
        session.sim.schedule(end, heal)


def _latency_spike(session: Session, step: FaultStep) -> None:
    placed, network = session.placed, session.cluster.network
    pairs = placed.spike_pairs(step.region)
    network.counters.add("latency_spikes")
    for src, dst in pairs:
        spec = placed.current_spec(src, dst).scaled(step.factor)
        network.set_link(src, dst, spec.to_config())

    def restore() -> None:
        for src, dst in pairs:
            network.set_link(src, dst, placed.current_spec(src, dst).to_config())

    session.sim.schedule(step.duration, restore)


def _flash_crowd(session: Session, step: FaultStep) -> None:
    swarm = session.new_swarm("F", step, FLASH_RAMP[0] * step.rate)
    session.cluster.network.counters.add("flash_crowds")
    swarm.start()
    segment = step.duration / len(FLASH_RAMP)
    for i, multiplier in enumerate(FLASH_RAMP[1:], start=1):
        session.sim.schedule(
            i * segment, lambda m=multiplier: swarm.set_rate(m * step.rate)
        )
    session.sim.schedule(step.duration, swarm.stop)


def _age_replicas(session: Session, step: FaultStep) -> None:
    if session.aging is None:
        per_op = step.fraction if step.fraction > 0 else DEFAULT_PER_OP_STALL
        session.aging = FragmentationAging(session.cluster, per_op_stall=per_op)
    if step.target:
        session.aging.arm(step.target)
    else:
        session.aging.arm()


# -- the step table: the one place that knows a step kind ------------------------


class PlanError(ValueError):
    """A plan refused before any cluster was built; any other error is the run's."""


_ANYWHERE = frozenset({SINGLE, SHARDED, SOAK})
# Campaign steps speak in regions, swarms and aging of *one* group's network.
_ONE_GROUP = frozenset({SINGLE, SOAK})
# Implementation faults need the containment supervisor and poisonable
# implementations, overload the strict goodput oracle: only run_plan's
# one-group cluster is built with them.
_SINGLE_ONLY = frozenset({SINGLE})
# Destroying a group is survivable only with sibling groups to rebuild from.
_SHARDED_ONLY = frozenset({SHARDED})


@dataclass(frozen=True)
class StepKind:
    """Everything the DSL knows about one step kind: family, applier, the
    deployments it is valid on, and what a step of it must carry — ``needs``:
    fields that must be set (a known target replica, a partition's groups, a
    region, numbers > 0); ``regional``: it speaks in regions of the plan's
    topology preset, so the plan must name one."""

    family: str
    apply: Callable[[Session, FaultStep], None]
    deployments: FrozenSet[str] = _ANYWHERE
    needs: Tuple[str, ...] = ()
    regional: bool = False


_TARGET = ("target",)
_SWARM = ("rate", "clients", "duration")  # an open-loop episode's shape

STEP_TABLE: Dict[str, StepKind] = {
    "crash": StepKind(
        BENIGN, lambda s, step: s.cluster.crash(step.target), needs=_TARGET
    ),
    "restart": StepKind(
        BENIGN, lambda s, step: s.cluster.restart(step.target), needs=_TARGET
    ),
    "partition": StepKind(
        BENIGN, lambda s, step: s.cluster.network.partition(*step.groups), needs=("groups",)
    ),
    "heal": StepKind(BENIGN, lambda s, step: s.cluster.heal()),
    "drop": StepKind(BENIGN, _drop, needs=_TARGET),
    "recover": StepKind(
        BENIGN, lambda s, step: s.cluster.recover(step.target), needs=_TARGET
    ),
    # Byzantine steps make their target a *Byzantine* replica: it keeps
    # running but misbehaves with its own keys, so safety oracles must exclude
    # it from the "correct replicas" they quantify over.
    "equivocate": StepKind(BYZANTINE, _arm(make_equivocating_primary), needs=_TARGET),
    "lie_checkpoint": StepKind(BYZANTINE, _arm(make_lying_checkpointer), needs=_TARGET),
    "corrupt_votes": StepKind(BYZANTINE, _arm(make_vote_corruptor), needs=_TARGET),
    "corrupt_results": StepKind(BYZANTINE, _arm(make_result_corruptor), needs=_TARGET),
    "fabricate_cert": StepKind(BYZANTINE, _fabricate_cert, needs=_TARGET),
    # Implementation-fault steps drive the fault-containment layer:
    # ``poison_request`` marks the target's primary implementation poisonable
    # and injects a request carrying the poison pattern (deterministic crash →
    # reactive repair → skip-past-poison → N-version failover);
    # ``corrupt_object`` silently corrupts abstract object ``index`` in the
    # target's concrete state (no ``modify`` upcall), which only the
    # background scrubber can detect and repair.  Plans containing these
    # steps run with the supervisor armed.
    "poison_request": StepKind(IMPLEMENTATION, _poison_request, _SINGLE_ONLY, _TARGET),
    "corrupt_object": StepKind(IMPLEMENTATION, _corrupt_object, _SINGLE_ONLY, _TARGET),
    # Overload steps are not faults at all: every node stays correct, the
    # *offered load* is the adversary.  ``overload`` runs an open-loop client
    # swarm at ``rate`` requests/second for ``duration`` seconds, optionally
    # squeezing every link to ``bandwidth`` bytes/vsec so saturation is
    # producible; the goodput-under-overload oracle judges the episode.
    "overload": StepKind(OVERLOAD, _overload, _SINGLE_ONLY, _SWARM),
    # Campaign steps are the geo-scale correlated scenarios:
    # ``region_outage``    — every replica in ``region`` crashes at ``at`` and
    #                        restarts at ``at + duration``.  An outage of a
    #                        region holding more than f replicas is *allowed* but
    #                        its span is a beyond-assumption window
    #                        (:func:`beyond_assumption_windows`): liveness and
    #                        availability SLOs are suspended there while safety
    #                        oracles keep running throughout.
    # ``partition_storm``  — ``count`` short correlated cuts along seeded region
    #                        boundaries within [at, at + duration]; overlapping
    #                        cuts stack and heal independently
    #                        (``Network.cut_links``/``restore_links``).
    # ``latency_spike``    — inter-region latency (all boundaries, or only those
    #                        touching ``region``) inflated ``factor``× for
    #                        ``duration``.
    # ``flash_crowd``      — a diurnal burst: an open-loop swarm of ``clients``
    #                        ramps to a peak of ``rate`` requests/second at the
    #                        episode midpoint and back down over ``duration``.
    # ``age_replicas``     — arms the fragmentation aging model on ``target``
    #                        (or every replica when blank): per-op latency
    #                        degradation that reactive repair cannot observe and
    #                        only a proactive rotation clears (``fraction``
    #                        overrides the per-op stall when > 0).
    "region_outage": StepKind(
        CAMPAIGN, _region_outage, _ONE_GROUP, ("region", "duration"), regional=True
    ),
    "partition_storm": StepKind(
        CAMPAIGN, _partition_storm, _ONE_GROUP, ("count", "duration"), regional=True
    ),
    "latency_spike": StepKind(
        CAMPAIGN, _latency_spike, _ONE_GROUP, ("factor", "duration"), regional=True
    ),
    "flash_crowd": StepKind(CAMPAIGN, _flash_crowd, _ONE_GROUP, _SWARM),
    "age_replicas": StepKind(CAMPAIGN, _age_replicas, _ONE_GROUP),
    # Destruction deliberately exceeds the <= f fault assumption:
    # ``destroy_group`` wipes every replica of shard group ``index`` —
    # processes *and* disks — so the group's own replication cannot bring it
    # back.  Only sharded runs with a fused-backup tier attached
    # (repro.bft.fusion) can survive one; the runner aligns the victim group
    # to a stable checkpoint boundary first (RPO = 0) so every safety oracle
    # still holds unconditionally through the loss and reconstruction.  That
    # needs a blocking rebuild, so the step only *flags* itself at its fire
    # time and the workload loop executes it between requests
    # (drain_destroys).
    "destroy_group": StepKind(
        DESTRUCTION, lambda s, step: s.pending_destroys.append(step), _SHARDED_ONLY
    ),
}


def kinds_of(family: str) -> FrozenSet[str]:
    return frozenset(kind for kind, row in STEP_TABLE.items() if row.family == family)


def families(plan: FaultPlan) -> FrozenSet[str]:
    """The families of the plan's steps.  ``== {OVERLOAD}`` is *pure
    overload*: fault-free saturation, the only case where the goodput oracle
    may be strict (shed-but-commit, view number bounded) — real faults
    legitimately cause view changes."""
    rows = map(STEP_TABLE.get, (step.kind for step in plan.steps))
    return frozenset(row.family for row in rows if row is not None)


def targets(plan: FaultPlan, family: str) -> FrozenSet[str]:
    """The replicas the plan's steps of ``family`` act on."""
    kinds = kinds_of(family)
    return frozenset(step.target for step in plan.steps if step.kind in kinds)


def unsupported_kinds(kinds: Iterable[str], deployment: str) -> List[str]:
    """The ``kinds`` (sorted) that ``deployment`` cannot run — the one place
    that decides; a kind missing from the table is supported nowhere."""
    rows = STEP_TABLE
    return sorted(
        {k for k in kinds if k not in rows or deployment not in rows[k].deployments}
    )


# -- the two rules a plan is held to -------------------------------------------------


def malformed(plan: FaultPlan) -> List[str]:
    """Rule one, *per-step well-formedness*: each step carries what its row
    says it must, and no two overload episodes overlap or touch.  Every run
    demands it (:func:`check_supported`), shrunk plans included — ddmin drops
    whole steps and cannot break one."""
    problems: List[str] = []
    topo = PRESETS.get(plan.topology)
    if plan.topology and topo is None:
        problems.append(f"unknown topology preset {plan.topology!r}")
    for step in plan.steps:
        row = STEP_TABLE.get(step.kind)
        if row is None:
            problems.append(f"unknown kind {step.kind!r}")
            continue
        for name in row.needs:
            if not getattr(step, name):
                problems.append(f"{step.kind} needs a {name} value")
        for name, decode in STEP_FIELDS.items():
            if decode in (float, int) and getattr(step, name) < 0:
                problems.append(f"{step.kind} {name} must be >= 0")
        if "factor" in row.needs and step.factor <= 1.0:
            problems.append(f"{step.kind} factor must be > 1")
        if step.target and step.target not in REPLICA_IDS:
            problems.append(f"{step.kind} of unknown replica {step.target!r}")
        if row.regional and not plan.topology:
            problems.append(f"{step.kind} requires a plan topology")
        elif row.regional and topo is not None and step.region:
            if step.region not in topo.region_names():
                problems.append(f"{step.kind} of unknown region {step.region!r}")
            elif "region" in row.needs and not topo.region(step.region).replicas:
                problems.append(f"{step.kind} of replica-less region {step.region!r}")
    # The goodput oracle judges one episode at a time; one starting the
    # instant another ends fires first (it was scheduled first, by arm).
    episodes = sorted((s.at, s.at + s.duration) for s in plan.steps if s.kind == "overload")
    for (start, end), (later, _) in zip(episodes, episodes[1:]):
        if later <= end:
            problems.append(f"overload episodes at t={start} and t={later} overlap")
    return problems


def outside_assumptions(plan: FaultPlan, f: int = 1) -> List[str]:
    """Rule two, *inside the fault assumptions*: time order, crash / restart
    and partition / heal pairing, the f budget.  Generated plans and soak
    campaigns must meet it, so a violation on one is an implementation bug; a
    shrunk plan need not — ddmin legitimately keeps a ``crash`` and drops its
    ``restart`` — and the epilogue heals whatever is left."""
    problems: List[str] = []
    last_at = -1.0
    crashed: Set[str] = set()
    partitioned = False
    for step in plan.steps:
        if step.at < last_at:
            problems.append(f"steps not time-ordered at t={step.at}")
        last_at = step.at
        if step.kind == "crash":
            if step.target in crashed:
                problems.append(f"{step.target} crashed twice without restart")
            crashed.add(step.target)
            if len(crashed) > f:
                problems.append(f"more than f={f} replicas down at once")
        elif step.kind == "restart":
            if step.target not in crashed:
                problems.append(f"restart of non-crashed {step.target}")
            crashed.discard(step.target)
        elif step.kind == "partition":
            if partitioned:
                problems.append("partition while one is already active")
            partitioned = True
        elif step.kind == "heal":
            if not partitioned:
                problems.append("heal without an active partition")
            partitioned = False
    if [step.kind for step in plan.steps].count("destroy_group") > 1:
        # One catastrophe per run: the fused tier reconstructs sequentially
        # and a second loss during reconstruction is outside its model.
        problems.append("at most one destroy_group step per plan")
    if crashed:
        problems.append(f"plan ends with {sorted(crashed)} still crashed")
    if partitioned:
        problems.append("plan ends with an unhealed partition")
    # Implementation faults share the f budget with Byzantine behavior: a
    # poisoned replica is down until repaired and a corrupted one may serve
    # wrong values until scrubbed, so together they must stay within f.
    if len(targets(plan, BYZANTINE) | targets(plan, IMPLEMENTATION)) > f:
        problems.append(f"more than f={f} faulty (Byzantine or implementation) replicas")
    poisoned = frozenset(s.target for s in plan.steps if s.kind == "poison_request")
    stray = [s.target for s in plan.steps if s.kind == "crash" and s.target not in poisoned]
    if poisoned and stray:
        problems.append(
            f"crash of {stray[0]} can overlap the poisoned "
            f"{sorted(poisoned)} being down (> f at once)"
        )
    return problems


def validate_plan(plan: FaultPlan, f: int = 1) -> List[str]:
    """Both rules; the problems found (empty = valid).  A ``region_outage``
    of more than ``f`` replicas is *not* one: it declares a beyond-assumption
    window (:func:`beyond_assumption_windows`)."""
    return malformed(plan) + outside_assumptions(plan, f)


def beyond_assumption_windows(
    plan: FaultPlan, f: int = 1, margin: float = 0.0
) -> List[Tuple[float, float]]:
    """Time windows where the plan itself exceeds the <= f crash assumption.

    A ``region_outage`` of a region holding more than ``f`` replicas takes
    the system outside the fault model: liveness cannot be promised, so the
    availability SLO is suspended over ``[at, at + duration + margin]``
    (``margin`` covers post-restart catch-up).  Safety oracles are *never*
    suspended — correctness must hold even beyond the liveness assumptions.
    Overlapping and adjacent windows are merged; the result is time-ordered.
    """
    topo = PRESETS.get(plan.topology)
    large = {r.name for r in topo.regions if len(r.replicas) > f} if topo else ()
    merged: List[Tuple[float, float]] = []
    for step in sorted(plan.steps, key=lambda s: s.at):
        if step.kind != "region_outage" or step.region not in large:
            continue
        end = step.at + step.duration + margin
        if merged and step.at <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((step.at, end))
    return merged


def not_supported(deployment: str, unsupported: Iterable[str]) -> str:
    return (
        f"a {deployment} deployment does not support {list(unsupported)} "
        f"(see the support matrix in docs/simulation.md)"
    )


def check_supported(
    plan: FaultPlan, deployment: str, overrides: Optional[Dict] = None
) -> None:
    """Raise :class:`PlanError` unless ``deployment`` can run ``plan`` under
    ``overrides`` — a ``DEPLOYMENTS`` row, every kind supported, the
    overrides those of a variant valid there, every step well formed; every
    entry point calls this before it builds a cluster."""
    if deployment not in DEPLOYMENTS:
        raise PlanError(
            f"unknown deployment {deployment!r}; the deployments: {list(DEPLOYMENTS)}"
        )
    variant = variant_of(overrides)
    if variant is None:
        raise PlanError(
            f"config overrides {overrides!r} are none of the variants {list(VARIANTS)}"
        )
    unsupported = unsupported_kinds((step.kind for step in plan.steps), deployment)
    if plan.topology and unsupported_kinds(kinds_of(CAMPAIGN), deployment):
        # Presets are compiled by the campaign machinery: same support.
        unsupported.append(f"topology {plan.topology!r}")
    unsupported += support_cell(deployment, variant, None).refused
    if unsupported:
        raise PlanError(not_supported(deployment, unsupported))
    problems = malformed(plan)
    if problems:
        raise PlanError(f"malformed plan: {problems}")


# -- the deployment table: the one place that knows a deployment ---------------


def _one_group(group: Callable, plan: FaultPlan, config, net_config, shards: int):
    """One group, built by ``group``: the entry point's ``recording_cluster``,
    a module global there that its tests and the perf harness rebind."""
    containment: Dict[str, object] = {}
    if IMPLEMENTATION in families(plan):
        # Implementation-fault steps need the containment machinery: an
        # armable poisonable implementation per replica plus a clean
        # failover version, a supervisor to repair crashes, and (when
        # state corruption is in the plan) a running scrubber.
        scrubbing = any(step.kind == "corrupt_object" for step in plan.steps)
        containment["poisoned"] = set()
        containment["repair"] = RepairPolicy(
            backoff_initial=0.02,
            backoff_max=0.3,
            deterministic_after=2,
            failover_after=3,
            scrub_interval=0.08 if scrubbing else 0.0,
            scrub_batch=12,
        )
    cluster, recorder = group(
        config=config,
        net_config=net_config,
        seed=plan.seed,
        **containment,
    )
    return cluster, [recorder], containment.get("poisoned")


def _shard_groups(_group: Callable, plan: FaultPlan, config, net_config, shards: int):
    """``shards`` groups plus the 2PC layer, built whole by
    ``sharded_recording_cluster`` rather than group by group."""
    system, recorders = sharded_recording_cluster(
        shards,
        config=config,
        seed=plan.seed,
        objects_per_shard=OBJECTS_PER_SHARD,
        net_config=net_config,
    )
    return system, recorders, None


@dataclass(frozen=True)
class Drive:
    """``run_plan``'s options for a workload (its parameters of those names)."""

    liveness_timeout: float
    slo: Optional[SoakSLO]
    op_timeout: float
    gap: float
    log: Optional[Callable[[str], None]]


class _Workload:
    """The closed-loop client ``C0`` and how to ask it for one operation."""

    settle = 2.0  # virtual seconds the healed system settles before the sweep

    def __init__(self, session: Session, plan: FaultPlan, drive: Drive):
        self.session = session
        self.client = session.client("C0")
        self.plan = plan
        self.liveness_timeout = drive.liveness_timeout

    def drive(self, outcome) -> None:
        """The plan's requests, one at a time, then on to the end of its last
        episode; a destroy step that fired meanwhile runs between requests."""
        session, plan = self.session, self.plan
        for i in range(plan.requests):
            session.drain_destroys(self.client)
            if self.request(i):
                outcome.completed += 1
        # Let any fault steps scheduled past the workload's end still fire
        # (overload and campaign episodes occupy [at, at + duration]).
        episodes = kinds_of(OVERLOAD) | kinds_of(CAMPAIGN)
        horizon = 0.5 + max(
            (s.at + (s.duration if s.kind in episodes else 0.0) for s in plan.steps),
            default=0.0,
        )
        if session.sim.now() < horizon:
            session.sim.run_until(horizon)
        # A destroy step timed after the workload finished fires during the
        # horizon run; execute it before judging liveness.
        session.drain_destroys(self.client)

    def invoke(self, op: bytes, timeout: float = 8.0) -> Optional[bytes]:
        try:
            return self.client.invoke(op, timeout=timeout)
        except InvocationTimeout:
            self.client.cancel()
            return None

    def probe(self, op: bytes, where: str = "") -> Optional[str]:
        """Why ``op`` got no reply quorum once the faults healed (None when it
        did): a correct implementation must answer once faults stop and <= f
        replicas are Byzantine."""
        if self.invoke(op, self.liveness_timeout) is not None:
            return None
        return (
            f"{where}no reply quorum within {self.liveness_timeout}s of "
            f"virtual time after all faults were healed"
        )

    def evidence(self, outcome) -> None:
        """Attach the differential evidence the workload collects, if any."""


class _SingleWorkload(_Workload):
    """Sequential SETs over slots 0..7 of one group, then one liveness probe."""

    def __init__(self, session: Session, plan: FaultPlan, drive: Drive):
        super().__init__(session, plan, drive)
        self.replies: List[Optional[bytes]] = []  # None = timed out

    def request(self, i: int) -> bool:
        reply = self.invoke(encode_set(i % 8, bytes([i % 251, self.plan.seed % 251])))
        self.replies.append(reply)
        return reply == b"OK"

    def liveness(self) -> Optional[str]:
        return self.probe(encode_set(PROBE_SLOT, b"liveness-probe"))

    def evidence(self, outcome) -> None:
        outcome.client_replies = self.replies
        outcome.committed_history = canonical_committed_history(self.session.recorders[0])


class _ShardedWorkload(_Workload):
    """Single-shard writes interleaved across all shards with cross-shard
    transactions; liveness is demanded from every shard *and* from the
    cross-shard layer."""

    def __init__(self, session: Session, plan: FaultPlan, drive: Drive):
        super().__init__(session, plan, drive)
        self.shardmap = session.system.shardmap
        self.shards = len(session.clusters)

    def _txn_writes(self, i: int) -> List:
        home = i % self.shards
        value = bytes([i % 251, self.plan.seed % 251, 0x54])
        first = self.shardmap.global_index(home, SHARD_TXN_SLOT)
        other = self.shardmap.global_index((home + 1) % self.shards, SHARD_TXN_SLOT)
        return [(first, value), (other, value + b"'")]

    def request(self, i: int) -> bool:
        if i % 4 == 3:
            # Every fourth request is a cross-shard transaction, so 2PC is
            # always in flight across the plan's fault windows.
            return self.client.invoke_txn(self._txn_writes(i), timeout=8.0) is not None
        index = self.shardmap.global_index(i % self.shards, i % SHARD_TXN_SLOT)
        value = bytes([i % 251, self.plan.seed % 251])
        return self.invoke(encode_set(index, value)) == b"OK"

    def liveness(self) -> Optional[str]:
        for shard in range(self.shards):
            probe = self.shardmap.global_index(shard, SHARD_PROBE_SLOT)
            stalled = self.probe(encode_set(probe, b"liveness-probe"), f"shard{shard}: ")
            if stalled is not None:
                return stalled
        # A cross-shard decision (commit or abort, either is live) must also
        # be reachable once the world is healed.
        writes = self._txn_writes(self.plan.requests)
        if self.client.invoke_txn(writes, timeout=self.liveness_timeout) is None:
            return (
                f"cross-shard transaction reached no decision within "
                f"{self.liveness_timeout}s of virtual time after all faults "
                f"were healed"
            )
        return None


def campaign_horizon(plan: FaultPlan) -> float:
    """Virtual end time of a campaign: last step activity plus a tail."""
    return (
        max((step.at + step.duration for step in plan.steps), default=0.0)
        + CAMPAIGN_TAIL
    )


class _SoakWorkload:
    """The availability probe: client ``S0`` writes slot 31 one op at a time
    up to the campaign horizon, and the ``availability`` row judges its
    samples against the run's SLO.  No liveness probe follows the heal."""

    settle = 5.0

    def __init__(self, session: Session, plan: FaultPlan, drive: Drive):
        self.session = session
        slo = drive.slo
        self.probe = AvailabilityProbe(
            session.sim,
            session.client("S0"),
            make_op=lambda n: encode_set(PROBE_SLOT, b"soak:%d" % n),
            op_timeout=drive.op_timeout,
            gap=drive.gap,
            window=slo.window,
        )
        excluded = beyond_assumption_windows(plan, margin=slo.assumption_margin)
        self.watch = AvailabilityWatch(self.probe, slo, excluded)
        session.suite.availability = self.watch
        self.horizon = campaign_horizon(plan)
        if drive.log is not None:
            self._log_progress(drive.log)

    def _log_progress(self, log: Callable[[str], None]) -> None:
        """One line per window from a step hook, which makes no events: a
        logged run makes exactly the probe calls a quiet one does."""
        sim, probe, horizon = self.session.sim, self.probe, self.horizon
        next_mark = segment = max(probe.window, 1.0)

        def progress() -> None:
            nonlocal next_mark
            now = sim.now()
            if next_mark <= now < horizon:
                done = probe.summary()
                log(
                    f"t={now:8.1f}/{horizon:.0f}  "
                    f"ops={done.total}  avail={done.availability:.4f}"
                )
                while next_mark <= now:
                    next_mark += segment

        sim.add_step_hook(progress)

    def drive(self, outcome) -> None:
        self.probe.run_until(self.horizon, ops_per_segment=32)

    def liveness(self) -> Optional[str]:
        return None

    def evidence(self, outcome) -> None:
        """What the probe measured, the judged worst, and the MTTR integrated
        from the recovery log."""
        summary = self.probe.summary()
        durations = [
            duration
            for host in self.session.cluster.hosts.values()
            for duration in host.recovery_durations()
        ]
        outcome.probe = {
            "horizon": self.horizon,
            "probe_ops": summary.total,
            "availability": summary.availability,
            "min_window_availability": self.watch.worst_window,
            "max_outage_span": self.watch.worst_span,
            "windows": [w.to_dict() for w in summary.windows],
            "excluded_windows": [list(w) for w in self.watch.excluded],
            "outage_spans": [list(s) for s in summary.outage_spans],
            "mttr": {
                "recoveries": len(durations),
                "mean": (sum(durations) / len(durations)) if durations else 0.0,
                "max": max(durations) if durations else 0.0,
            },
        }


@dataclass(frozen=True)
class Deployment:
    """One deployment a plan runs on: the entry point's base
    :class:`BFTConfig` ``fields``; ``build(group, plan, config, net_config,
    shards) -> (system, recorders, poisoned)``, ``group`` being the entry
    point's one-group builder; the ``oracles`` (``ORACLES`` rows, in table
    order) the suite runs over what it built; the ``workload`` that drives
    it; its planted bugs; the ``counters`` its verdicts add; and whether the
    rotation starts before the plan's steps are armed."""

    fields: Dict[str, object]
    build: Callable[..., Tuple[object, List, Optional[Set[str]]]]
    oracles: Tuple[str, ...]
    workload: type
    plants: Dict[str, Callable] = field(default_factory=dict)
    counters: Tuple[str, ...] = ()
    rotation_first: bool = False


#: The rows of ``ORACLES`` (explore/oracles.py) that every group is held to.
_GROUP_ORACLES = (
    "prefix", "commit-agreement", "at-most-once", "view-monotonicity", "checkpoint-stability"
)

#: The deployments a fault plan runs on (docs/simulation.md has the table).
DEPLOYMENTS: Dict[str, Deployment] = {
    SINGLE: Deployment(
        fields={"checkpoint_interval": 8, "log_window": 16},
        build=_one_group,
        oracles=_GROUP_ORACLES,
        plants=PLANTED_BUGS,
        workload=_SingleWorkload,
        # The open-loop swarms' load, which run_plan counts on the session.
        counters=("offered", "swarm_completed"),
    ),
    SHARDED: Deployment(
        fields={"checkpoint_interval": 8, "log_window": 16},
        build=_shard_groups,
        oracles=_GROUP_ORACLES + ("cross-shard-atomicity", "reconstruction"),
        plants=SHARDED_PLANTED_BUGS,
        workload=_ShardedWorkload,
        counters=(
            "txns_started",
            "txns_committed",
            "txns_aborted",
            "txns_abandoned",
            "txn_commits_applied",
            "txn_aborts_applied",
            "txn_lock_conflicts",
            "txn_decides_rejected",
        ),
    ),
    SOAK: Deployment(
        fields={"checkpoint_interval": 16, "log_window": 64},
        build=_one_group,
        oracles=_GROUP_ORACLES + ("availability",),
        workload=_SoakWorkload,
        counters=("recoveries_started", "request_timeouts")
        + ("offered", "swarm_completed"),
        # The simulator breaks same-instant ties by scheduling order, and the
        # wan baselines pin a rotation and a flash crowd that share t=30 in
        # this order.
        rotation_first=True,
    ),
}


# -- the support matrix: what explore can run, and what CI runs ------------------


@dataclass(frozen=True)
class Cell:
    """A (deployment, variant, family) cell: what of it the deployment cannot
    run (``refused``; empty when runnable), and the artifact of the open
    violation that keeps a runnable cell out of CI (``kept_out``)."""

    deployment: str
    variant: str
    family: Optional[str]
    refused: Tuple[str, ...]
    kept_out: str


#: Runnable cells CI skips, each with its open violation's artifact (which
#: tests/explore/test_open_violations.py replays as a strict xfail).
KEPT_OUT = {
    (SINGLE, "baseline", OVERLOAD): "tests/explore/artifacts/baseline-overload.json",
    (SINGLE, "fast-path", OVERLOAD): "tests/explore/artifacts/fast-path-overload.json",
}


def support_cell(deployment: str, variant: str, family: Optional[str]) -> Cell:
    """Whether ``run_plan`` on ``deployment`` under ``VARIANTS[variant]`` can
    run the plans ``generate_plan(family=family)`` makes: the one decision
    behind the matrix, ``explore`` and so ``repro explore``."""
    refused = unsupported_kinds(kinds_of(family) if family else (), deployment)
    if variant not in VARIANTS or deployment not in VARIANTS[variant].deployments:
        refused.append(f"variant {variant!r}")
    kept_out = KEPT_OUT.get((deployment, variant, family), "")
    return Cell(deployment, variant, family, tuple(refused), kept_out)


def support_matrix() -> List[Cell]:
    """Every deployment ``explore`` drives x every variant x no family or one
    of ``OPT_IN_FAMILIES`` (the table in docs/simulation.md)."""
    return [
        support_cell(deployment, variant, family)
        for deployment in (SINGLE, SHARDED)
        for variant in VARIANTS
        for family in (None,) + OPT_IN_FAMILIES
    ]


def deployment_for(shards: int, soak: bool = False) -> str:
    """The ``run_plan`` deployment of ``shards`` groups; ``soak``: the one
    judged by an availability SLO."""
    if shards < 1:
        raise PlanError(f"shards must be >= 1, not {shards}")
    if soak and shards != 1:
        raise PlanError(f"a soak deployment has one group, not {shards}")
    return (SOAK if soak else SINGLE) if shards == 1 else SHARDED
