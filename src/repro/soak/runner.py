"""Long-horizon soak runs: campaign + load + availability SLO, replayable.

A soak is a ``run_plan`` of the ``soak`` deployment row: one WAN-tuned group
under the campaign, proactive rotation iff the plan's ``recovery_period``
says so, and the availability probe as its workload.  Safety oracles are
*never* suspended, not even inside declared beyond-assumption windows; the
``availability`` row judges the probe against the :class:`SoakSLO` only
outside them.  ``run_soak`` is that run with the verdict read out as a
:class:`SoakReport`: per-window availability, coalesced outage spans, MTTR
integrated from the recovery log and the verdict counters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bft.testing import recording_cluster
from repro.explore.interpreter import SOAK, PlanError, check_supported, outside_assumptions
from repro.explore.oracles import SoakSLO
from repro.explore.plan import FaultPlan
from repro.explore.runner import RunOutcome, run_plan

#: Simulator events between two continuous oracle checks of a soak run.
CHECK_INTERVAL = 100


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

    @classmethod
    def of(cls, outcome: RunOutcome) -> "SoakReport":
        """A soak's verdict; a violation the ``availability`` row raised is an SLO one."""
        measured = dict(outcome.probe)
        measured["excluded_windows"] = [tuple(w) for w in measured["excluded_windows"]]
        measured["outage_spans"] = [tuple(s) for s in measured["outage_spans"]]
        counters = dict(outcome.counters)  # the verdict's, less the swarms' load
        violations = [outcome.violation.to_dict()] if outcome.violation else []
        slo = bool(violations) and violations[0]["oracle"] == "availability"
        return cls(
            events=outcome.events,
            slo_violations=violations if slo else [],
            safety_violations=[] if slo else violations,
            counters=counters,
            swarm_offered=counters.pop("offered"),
            swarm_completed=counters.pop("swarm_completed"),
            **measured,
        )

    def to_dict(self) -> Dict:
        data = asdict(self)
        data.update(
            excluded_windows=[list(w) for w in self.excluded_windows],
            outage_spans=[list(s) for s in self.outage_spans],
            ok=self.ok,
        )
        return data


def run_soak(
    plan: FaultPlan,
    slo: Optional[SoakSLO] = None,
    op_timeout: float = 8.0,
    gap: float = 1.0,
    log: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Execute one campaign plan over its full horizon; fully deterministic."""
    check_supported(plan, SOAK)
    problems = outside_assumptions(plan)
    if problems:  # a campaign, unlike a shrunk plan, must also stay inside them
        raise PlanError(f"invalid campaign plan: {problems}")
    outcome = run_plan(
        plan,
        check_interval=CHECK_INTERVAL,
        slo=slo or SoakSLO(),
        op_timeout=op_timeout,
        gap=gap,
        log=log,
        # Looked up at call time: the perf harness captures the deployment
        # by rebinding this module's ``recording_cluster``.
        group=recording_cluster,
    )
    return SoakReport.of(outcome)
