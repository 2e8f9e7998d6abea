"""Budgeted exploration of fault schedules, and deterministic replay.

``explore`` derives a stream of fault plans from one master seed, executes
each against a fresh recording deployment with every safety oracle installed
as a continuous simulator hook, optionally perturbs event ordering with the
seeded tie-break shuffle, and stops at the first violation — which it then
shrinks to a minimal plan and packages as a replayable artifact.

``run_plan`` is the single-run primitive shared by exploration, shrinking,
replay, soak campaigns and the tests: one plan in, one verdict out,
byte-deterministic.  ``shards=1`` runs the plan against one BASE group;
``shards=N`` against N groups with a cross-shard transactional workload, the
plan's fault steps landing on shard 0 (the other shards stay fault-free), so
crash/partition windows there overlap in-flight 2PC; an ``slo`` runs it as a
soak, one group under the availability probe, judged by that SLO.  Either
way the deployment is a row of the shared interpreter's ``DEPLOYMENTS``
(:mod:`repro.explore.interpreter`), which also applies the steps and drives
the row's workload; this module builds the row and demands liveness
afterwards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.bft.config import VARIANTS
from repro.bft.testing import recording_cluster
from repro.explore.interpreter import (
    CAMPAIGN,
    DEPLOYMENTS,
    Drive,
    PlanError,
    Session,
    check_supported,
    deployment_configs,
    deployment_for,
    families,
    not_supported,
    support_cell,
)
from repro.explore.oracles import OracleViolation, SoakSLO, Violation
from repro.explore.plan import FaultPlan, generate_plan
from repro.explore.shrink import shrink_plan

#: Cross-replica counters surfaced in every run verdict (all zero on plans
#: that never saturate anything, which is itself evidence).
_VERDICT_COUNTERS = (
    "requests_shed",
    "busy_replies",
    "busy_replies_received",
    "pending_evicted",
    "pending_expired",
    "pending_superseded",
    "requests_relayed",
    "view_changes_started",
    "view_changes_damped",
    # Fast-path evidence: zero on baseline runs, and the differential tests
    # assert the fast-path runs actually speculated (a dormant fast path
    # would make the equivalence checks vacuous).
    "spec_batches",
    "spec_promotions",
    "spec_rollbacks",
    "tentative_replies_accepted",
    "lease_grants",
    "leased_reads_served",
)

#: Extra counters surfaced only on campaign plans (topology / geo-scale
#: steps), keeping non-campaign verdict dicts byte-identical to before.
_CAMPAIGN_COUNTERS = (
    "storm_cuts",
    "region_outages",
    "latency_spikes",
    "flash_crowds",
    "messages_dropped_cut",
    "aging_stalls",
    "aging_stall_us",
)


@dataclass
class RunOutcome:
    """Verdict of one plan execution."""

    violation: Optional[Violation]
    completed: int  # acknowledged workload requests
    events: int  # simulator events processed
    counters: Dict[str, int] = field(default_factory=dict)  # overload evidence
    # Differential-testing evidence (not serialized: replies are raw bytes and
    # the committed history can be long; the differential harness consumes
    # them in-process).
    client_replies: Optional[List[Optional[bytes]]] = None
    committed_history: Optional[List] = None
    # Where the run left every replica of every group (not serialized either:
    # ``repro replay`` prints it after a violation).
    replica_states: Optional[List[Dict]] = None
    # What a soak's availability probe measured (soak runs only).
    probe: Optional[Dict] = None

    def to_dict(self) -> Dict:
        data = {
            "violation": self.violation.to_dict() if self.violation else None,
            "completed": self.completed,
            "events": self.events,
            "counters": self.counters,
        }
        if self.probe is not None:
            data["probe"] = self.probe
        return data


@dataclass
class ExploreResult:
    """Outcome of one exploration session."""

    seed: int
    budget: int
    plans_run: int
    plan: Optional[FaultPlan] = None  # first violating plan, unshrunk
    violation: Optional[Violation] = None
    shrunk_plan: Optional[FaultPlan] = None
    shrunk_violation: Optional[Violation] = None
    shrink_runs: int = 0
    verdicts: List[Dict] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.violation is not None

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "plans_run": self.plans_run,
            "plan": self.plan.to_dict() if self.plan else None,
            "violation": self.violation.to_dict() if self.violation else None,
            "shrunk_plan": self.shrunk_plan.to_dict() if self.shrunk_plan else None,
            "shrunk_violation": (
                self.shrunk_violation.to_dict() if self.shrunk_violation else None
            ),
            "verdicts": self.verdicts,
        }


#: Fused-backup counters, surfaced only when the plan destroyed a group.
_FUSION_COUNTERS = (
    "fusion_reconstructions_started",
    "fusion_reconstructions_completed",
    "fusion_reconstructions_failed",
    "fusion_replicas_seeded",
    "fusion_updates_applied",
    "fusion_destroys_skipped",
)


# -- one plan, one verdict --------------------------------------------------------


def run_plan(
    plan: FaultPlan,
    shards: int = 1,
    plant: Optional[str] = None,
    check_interval: int = 10,
    liveness_timeout: float = 30.0,
    config_overrides: Optional[Dict] = None,
    slo: Optional[SoakSLO] = None,
    op_timeout: float = 8.0,
    gap: float = 1.0,
    log: Optional[Callable[[str], None]] = None,
    group: Optional[Callable] = None,
) -> RunOutcome:
    """Execute one fault plan against a fresh deployment; fully deterministic:
    (plan, shards, plant, configuration) determine the verdict.

    ``config_overrides`` are the :class:`BFTConfig` overrides of one row of
    ``VARIANTS`` valid on the deployment (None: the baseline) — the
    differential harness replays one fault plan under every row and compares
    the outcomes.  An ``slo`` makes the run a soak: the availability probe
    (``op_timeout`` / ``gap`` per op) runs to the campaign horizon, logging
    progress to ``log``.  ``group`` builds a one-group deployment (default:
    this module's ``recording_cluster``, which tests rebind)."""
    deployment = deployment_for(shards, soak=slo is not None)
    row = DEPLOYMENTS[deployment]
    check_supported(plan, deployment, config_overrides)
    if plant is not None and plant not in row.plants:
        raise PlanError(f"a {deployment} deployment has no planted bug {plant!r}")
    config, net_config = deployment_configs(plan, row.fields, config_overrides)
    system, recorders, poisoned = row.build(
        group or recording_cluster, plan, config, net_config, shards
    )
    session = Session(plan, system, recorders, deployment, check_interval, poisoned)
    sim = system.sim
    if plant is not None:
        # Re-apply each event so the bug survives reboots (recovery swaps
        # the replica and service objects the sabotage was patched onto).
        sim.add_step_hook(row.plants[plant](system))
    # Steps before rotation unless the row says otherwise: a destruction
    # plan's parity bootstrap (inside arm) takes 0.5 vsec and the rotation
    # timers count from after it.
    if row.rotation_first:
        session.start_rotation()
    session.arm()
    if not row.rotation_first:
        session.start_rotation()
    drive = Drive(liveness_timeout, slo, op_timeout, gap, log)
    workload = row.workload(session, plan, drive)
    outcome = RunOutcome(violation=None, completed=0, events=0)
    try:
        workload.drive(outcome)
        # Heal the world, then demand liveness.
        session.heal_and_sweep(settle=workload.settle)
        stalled = workload.liveness()
        if stalled is None:
            session.suite.check_now()
        else:
            outcome.violation = Violation(
                oracle="liveness",
                detail=stalled,
                time=sim.now(),
                event_index=sim.events_processed,
            )
    except OracleViolation as caught:
        outcome.violation = caught.violation
    totals = system.total_counters()
    totals.add("offered", session.offered())
    totals.add("swarm_completed", session.completed())
    names = _VERDICT_COUNTERS + row.counters
    if session.tier is not None:
        names += _FUSION_COUNTERS
    if plan.topology or CAMPAIGN in families(plan):
        names += _CAMPAIGN_COUNTERS
    outcome.counters = {name: totals.get(name) for name in names}
    outcome.events = sim.events_processed
    outcome.replica_states = _replica_states(system)
    workload.evidence(outcome)
    return outcome


def _replica_states(system) -> List[Dict]:
    """One row per replica of every group: its view and view-change state,
    whether it is recovering, how far it executed and checkpointed, and
    whether its host is mid-reboot or its link is down."""
    rows = []
    for group, cluster in enumerate(system.clusters):
        for rid, host in cluster.hosts.items():
            replica = host.replica
            rows.append(
                {
                    "group": group,
                    "replica": rid,
                    "view": replica.view,
                    "in_view_change": replica.view_changes.in_view_change,
                    "pending_view": replica.view_changes.pending_view,
                    "recovering": replica.recovering,
                    "last_executed": replica.last_executed,
                    "stable_seqno": replica.stable_seqno,
                    "mid_reboot": host._mid_reboot,
                    "link_down": cluster.network.is_down(rid),
                }
            )
    return rows


# -- exploration sessions -----------------------------------------------------------


def explore(
    budget: int = 25,
    seed: int = 0,
    requests: int = 24,
    max_steps: int = 6,
    plant: Optional[str] = None,
    check_interval: int = 10,
    shrink: bool = True,
    family: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    variant: str = "baseline",
    shards: int = 1,
) -> ExploreResult:
    """Run up to ``budget`` seeded random plans; stop at the first violation.

    With a fixed ``seed`` the generated plans, their verdicts, and any shrunk
    repro are identical across runs.  ``generate_plan`` adds ``family``'s
    steps to every plan, the ``VARIANTS`` row ``variant`` applies to every
    run (shrinking included), and ``shards=N`` runs the plans against N
    groups.  A cell ``support_cell`` refuses raises :class:`PlanError` first.
    """
    cell = support_cell(deployment_for(shards), variant, family)
    if cell.refused:
        raise PlanError(not_supported(cell.deployment, cell.refused))
    run = partial(
        run_plan,
        shards=shards,
        plant=plant,
        check_interval=check_interval,
        config_overrides=VARIANTS[variant].overrides,
    )
    master = random.Random(seed)
    result = ExploreResult(seed=seed, budget=budget, plans_run=0)
    for index in range(budget):
        plan = generate_plan(
            master.randrange(2**31),
            requests=requests,
            max_steps=max_steps,
            family=family,
        )
        outcome = run(plan)
        result.plans_run += 1
        result.verdicts.append(
            {"index": index, "plan": plan.to_dict(), "outcome": outcome.to_dict()}
        )
        if log is not None:
            status = outcome.violation.oracle if outcome.violation else "ok"
            log(
                f"plan {index + 1}/{budget}: {len(plan.steps)} steps, "
                f"{outcome.completed}/{plan.requests} acked, "
                f"{outcome.events} events -> {status}"
            )
        if outcome.violation is not None:
            result.plan = plan
            result.violation = outcome.violation
            if shrink:
                if log is not None:
                    log(f"shrinking {len(plan.steps)}-step violating plan ...")
                shrunk = shrink_plan(plan, outcome.violation, lambda p: run(p).violation)
                result.shrunk_plan = shrunk.plan
                result.shrunk_violation = shrunk.violation
                result.shrink_runs = shrunk.runs
                if log is not None:
                    log(
                        f"shrunk to {len(shrunk.plan.steps)} fault steps in "
                        f"{shrunk.runs} runs"
                    )
            break
    return result
