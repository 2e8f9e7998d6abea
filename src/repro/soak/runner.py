"""Long-horizon soak runs: campaign + load + availability SLO, replayable.

``run_soak`` executes one campaign plan over virtual hours against a
WAN-tuned cluster: the topology preset is compiled onto the network, the
campaign's storms / spikes / crowds / aging fire on schedule, proactive
rotation runs iff the plan's ``recovery_period`` says so, and a resumable
:class:`~repro.faults.scenarios.AvailabilityProbe` measures windowed
availability the whole way.  Safety oracles are installed as a continuous
simulator hook for the entire horizon — they are *never* suspended, not even
inside declared beyond-assumption windows.

The verdict is a :class:`SoakReport`: per-window availability, coalesced
outage spans, MTTR integrated from the recovery log, and the availability
SLO judged *outside* the plan's beyond-assumption windows (a region outage
that exceeds f suspends liveness judgement over its span, nothing else).
``write_soak_artifact`` / ``load_soak_artifact`` round-trip the run as JSON
so ``repro replay`` can re-execute it byte-deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.bft.testing import encode_set, recording_cluster
from repro.explore.interpreter import (
    DEPLOYMENTS,
    PROBE_SLOT,
    SOAK,
    PlanError,
    Session,
    beyond_assumption_windows,
    check_supported,
    deployment_configs,
    outside_assumptions,
)
from repro.explore.oracles import OracleViolation
from repro.explore.plan import FaultPlan
from repro.faults.scenarios import AvailabilityProbe
from repro.soak.campaign import campaign_horizon

SOAK_ARTIFACT_VERSION = 1

#: Simulator events between two continuous oracle checks of a soak run.
CHECK_INTERVAL = 100


@dataclass(frozen=True)
class SoakSLO:
    """The availability service-level objective a soak run is judged by.

    window:             accounting window width, virtual seconds.
    availability_floor: minimum fraction of probe ops that must succeed in
                        every judged window.
    max_outage_span:    longest tolerated coalesced outage, virtual seconds.
    assumption_margin:  grace period appended to each beyond-assumption
                        window (post-restart state-transfer catch-up).
    """

    window: float = 300.0
    availability_floor: float = 0.99
    max_outage_span: float = 90.0
    assumption_margin: float = 30.0

    def __post_init__(self) -> None:  # out of range, a field turns the SLO off
        if not (self.window > 0 and 0 <= self.availability_floor <= 1
                and self.max_outage_span >= 0 and self.assumption_margin >= 0):
            raise ValueError("SLO needs window > 0, 0 <= availability_floor <= 1 and "
                             f"spans >= 0, not {self.to_dict()}")

    def to_dict(self) -> Dict:
        return {
            "window": self.window,
            "availability_floor": self.availability_floor,
            "max_outage_span": self.max_outage_span,
            "assumption_margin": self.assumption_margin,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SoakSLO":
        return cls(
            window=float(data["window"]),
            availability_floor=float(data["availability_floor"]),
            max_outage_span=float(data["max_outage_span"]),
            assumption_margin=float(data["assumption_margin"]),
        )


@dataclass
class SoakReport:
    """Everything one soak run measured, JSON-serializable for artifacts."""

    horizon: float
    events: int
    probe_ops: int
    availability: float
    min_window_availability: float  # over judged (within-assumption) windows
    max_outage_span: float  # longest span clipped to within-assumption time
    windows: List[Dict] = field(default_factory=list)
    excluded_windows: List[Tuple[float, float]] = field(default_factory=list)
    outage_spans: List[Tuple[float, float]] = field(default_factory=list)
    slo_violations: List[Dict] = field(default_factory=list)
    safety_violations: List[Dict] = field(default_factory=list)
    mttr: Dict = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    swarm_offered: int = 0
    swarm_completed: int = 0

    @property
    def ok(self) -> bool:
        return not self.slo_violations and not self.safety_violations

    def to_dict(self) -> Dict:
        return {
            "horizon": self.horizon,
            "events": self.events,
            "probe_ops": self.probe_ops,
            "availability": self.availability,
            "min_window_availability": self.min_window_availability,
            "max_outage_span": self.max_outage_span,
            "windows": self.windows,
            "excluded_windows": [list(w) for w in self.excluded_windows],
            "outage_spans": [list(s) for s in self.outage_spans],
            "slo_violations": self.slo_violations,
            "safety_violations": self.safety_violations,
            "mttr": self.mttr,
            "counters": self.counters,
            "swarm_offered": self.swarm_offered,
            "swarm_completed": self.swarm_completed,
            "ok": self.ok,
        }


def _overlaps(
    start: float, end: float, windows: List[Tuple[float, float]]
) -> bool:
    return any(start < w_end and end > w_start for w_start, w_end in windows)


def _clip_span(
    span: Tuple[float, float], excluded: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Subtract the excluded intervals from one outage span; the remaining
    pieces are the only outage time the SLO judges."""
    pieces = [span]
    for ex_start, ex_end in excluded:
        next_pieces: List[Tuple[float, float]] = []
        for start, end in pieces:
            if ex_end <= start or ex_start >= end:
                next_pieces.append((start, end))
                continue
            if start < ex_start:
                next_pieces.append((start, ex_start))
            if ex_end < end:
                next_pieces.append((ex_end, end))
        pieces = next_pieces
    return pieces


#: Cross-replica counters surfaced in every soak report.
_REPORT_COUNTERS = (
    "view_changes_started",
    "view_changes_damped",
    "request_timeouts",
    "recoveries_started",
    "aging_stalls",
    "aging_stall_us",
    "storm_cuts",
    "region_outages",
    "latency_spikes",
    "flash_crowds",
    "messages_dropped_cut",
    "requests_shed",
    "busy_replies",
)


def run_soak(
    plan: FaultPlan,
    slo: Optional[SoakSLO] = None,
    op_timeout: float = 8.0,
    gap: float = 1.0,
    log: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Execute one campaign plan over its full horizon; fully deterministic."""
    slo = slo or SoakSLO()
    row = DEPLOYMENTS[SOAK]
    check_supported(plan, SOAK)
    problems = outside_assumptions(plan)
    if problems:  # a campaign, unlike a shrunk plan, must also stay inside them
        raise PlanError(f"invalid campaign plan: {problems}")
    config, net_config = deployment_configs(plan, row.fields)
    # Looked up at call time: the perf harness captures the deployment by
    # rebinding this module's ``recording_cluster``.
    cluster, recorders, _poisoned = row.build(
        recording_cluster, plan, config, net_config, 1
    )
    session = Session(plan, cluster, recorders, SOAK, CHECK_INTERVAL)
    # Rotation before steps: the simulator breaks same-instant ties by
    # scheduling order, and the wan baselines pin a rotation and a flash
    # crowd that share t=30 in this order.
    session.start_rotation()
    session.arm()
    probe = AvailabilityProbe(
        cluster.sim,
        session.client("S0"),
        make_op=lambda n: encode_set(PROBE_SLOT, b"soak:%d" % n),
        op_timeout=op_timeout,
        gap=gap,
        window=slo.window,
        window_origin=0.0,
    )

    horizon = campaign_horizon(plan)
    if log is not None:
        # Logging is a pure observer — a step hook, no events of its own — so
        # a logged run makes exactly the probe calls a quiet one does and its
        # artifact replays (quietly) to the identical report.
        next_mark = segment = max(slo.window, 1.0)

        def progress() -> None:
            nonlocal next_mark
            now = cluster.sim.now()
            if next_mark <= now < horizon:
                done = probe.summary()
                log(
                    f"t={now:8.1f}/{horizon:.0f}  "
                    f"ops={done.total}  avail={done.availability:.4f}"
                )
                while next_mark <= now:
                    next_mark += segment

        cluster.sim.add_step_hook(progress)
    safety_violations: List[Dict] = []
    try:
        probe.run_until(horizon, ops_per_segment=32)
        # Heal everything, then sweep the oracles one final time.
        session.heal_and_sweep(settle=5.0)
    except OracleViolation as caught:
        safety_violations.append(caught.violation.to_dict())

    summary = probe.summary()
    excluded = beyond_assumption_windows(plan, margin=slo.assumption_margin)

    slo_violations: List[Dict] = []
    judged = [
        w
        for w in summary.windows
        if not _overlaps(w.start, w.end, excluded)
    ]
    for window in judged:
        if window.availability < slo.availability_floor:
            slo_violations.append(
                {
                    "oracle": "availability-slo",
                    "detail": (
                        f"window [{window.start:.0f}, {window.end:.0f}) "
                        f"availability {window.availability:.4f} below floor "
                        f"{slo.availability_floor}"
                    ),
                    "window_start": window.start,
                    "availability": window.availability,
                }
            )
    worst_span = 0.0
    for span in summary.outage_spans:
        for start, end in _clip_span(span, excluded):
            worst_span = max(worst_span, end - start)
            if end - start > slo.max_outage_span:
                slo_violations.append(
                    {
                        "oracle": "availability-slo",
                        "detail": (
                            f"outage span [{start:.1f}, {end:.1f}] lasts "
                            f"{end - start:.1f}s, beyond the "
                            f"{slo.max_outage_span}s bound"
                        ),
                        "span": [start, end],
                    }
                )

    durations = [
        duration
        for host in cluster.hosts.values()
        for duration in host.recovery_durations()
    ]
    mttr = {
        "recoveries": len(durations),
        "mean": (sum(durations) / len(durations)) if durations else 0.0,
        "max": max(durations) if durations else 0.0,
    }

    totals = cluster.total_counters()
    counters = {name: totals.get(name) for name in _REPORT_COUNTERS}

    return SoakReport(
        horizon=horizon,
        events=cluster.sim.events_processed,
        probe_ops=summary.total,
        availability=summary.availability,
        min_window_availability=(
            min((w.availability for w in judged), default=1.0)
        ),
        max_outage_span=worst_span,
        windows=[w.to_dict() for w in summary.windows],
        excluded_windows=excluded,
        outage_spans=summary.outage_spans,
        slo_violations=slo_violations,
        safety_violations=safety_violations,
        mttr=mttr,
        counters=counters,
        swarm_offered=session.offered(),
        swarm_completed=session.completed(),
    )


# -- artifacts --------------------------------------------------------------------


def write_soak_artifact(
    path, plan: FaultPlan, slo: SoakSLO, report: SoakReport
) -> None:
    data = {
        "format": "soak",
        "version": SOAK_ARTIFACT_VERSION,
        "plan": plan.to_dict(),
        "slo": slo.to_dict(),
        "report": report.to_dict(),
    }
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def is_soak_artifact(data: Dict) -> bool:
    return data.get("format") == "soak"


def load_soak_artifact(path) -> Tuple[FaultPlan, SoakSLO, Dict]:
    """Returns ``(plan, slo, recorded_report_dict)``."""
    data = json.loads(Path(path).read_text())
    if not is_soak_artifact(data):
        raise ValueError("not a soak artifact")
    if data.get("version") != SOAK_ARTIFACT_VERSION:
        raise ValueError(f"unsupported soak artifact version {data.get('version')!r}")
    return (
        FaultPlan.from_dict(data["plan"]),
        SoakSLO.from_dict(data["slo"]),
        data["report"],
    )
