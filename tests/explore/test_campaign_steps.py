"""Campaign steps run through the ordinary explore runner: a plan that
names a topology and mixes geo-scale steps with classic faults executes via
``run_plan`` under the full oracle suite, deterministically."""

from repro.explore.interpreter import validate_plan
from repro.explore.plan import FaultPlan, FaultStep
from repro.explore.runner import run_plan


def campaign_plan():
    return FaultPlan(
        seed=13,
        requests=8,
        topology="wan3",
        steps=(
            FaultStep(at=2.0, kind="partition_storm", count=2, duration=10.0),
            FaultStep(at=4.0, kind="crash", target="R3"),
            FaultStep(at=8.0, kind="latency_spike", factor=2.0, duration=8.0),
            FaultStep(at=10.0, kind="restart", target="R3"),
        ),
    )


def test_run_plan_executes_campaign_steps():
    plan = campaign_plan()
    assert validate_plan(plan) == []
    outcome = run_plan(plan, liveness_timeout=120.0)
    assert outcome.violation is None
    assert outcome.completed == plan.requests
    assert outcome.counters.get("storm_cuts") == 2
    assert outcome.counters.get("latency_spikes") == 1


def test_campaign_run_plan_is_deterministic():
    a = run_plan(campaign_plan(), liveness_timeout=120.0)
    b = run_plan(campaign_plan(), liveness_timeout=120.0)
    assert (a.violation, a.completed, a.events) == (b.violation, b.completed, b.events)
    assert a.counters == b.counters


def test_flat_plan_unaffected_by_campaign_support():
    """A plan with no topology and no campaign steps takes the historical
    path: same verdict shape, no campaign counters."""
    plan = FaultPlan(
        seed=1,
        requests=4,
        steps=(FaultStep(at=0.5, kind="crash", target="R1", duration=2.0),),
    )
    outcome = run_plan(plan)
    assert outcome.violation is None
    assert outcome.completed == 4
    assert not outcome.counters.get("storm_cuts")
