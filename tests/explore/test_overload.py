"""Overload exploration: the graceful-degradation acceptance tests.

The pinned criterion: a deterministic pure-overload run at >= 4x the
sustainable load *passes* the goodput oracle — commits continue, requests
are shed, and the view number never moves — while the *same* plan with
anti-storm damping planted out (``undamped-timers``) regresses into view
changes.  That contrast is the whole point of the layer: overload is
survived by shedding, not by electing a new primary that would inherit the
same queue.
"""

import json

import pytest

from repro.explore import (
    FaultPlan,
    FaultStep,
    explore,
    generate_plan,
    run_plan,
    validate_plan,
)
from repro.explore.interpreter import BENIGN, OVERLOAD, families
from repro.explore.plan import (
    OVERLOAD_BANDWIDTH,
    OVERLOAD_CLIENTS,
    OVERLOAD_DURATION,
    OVERLOAD_RATES,
    OVERLOAD_SUSTAINABLE,
    make_overload_step,
)


def overload_plan(rate: float, seed: int = 1234) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        requests=8,
        steps=(make_overload_step(at=0.1, rate=rate),),
    )


def test_calibration_rates_are_at_least_4x_sustainable():
    """Generated episodes must be unambiguous saturation, not a gray zone."""
    assert all(rate >= 4.0 * OVERLOAD_SUSTAINABLE for rate in OVERLOAD_RATES)


@pytest.mark.parametrize("rate", OVERLOAD_RATES)
def test_overload_is_survived_by_shedding_not_view_changes(rate):
    """THE acceptance pin: >= 4x sustainable load, every oracle holds,
    load was actually shed, and no view change fired anywhere in the run."""
    verdict = run_plan(overload_plan(rate))
    assert verdict.violation is None, verdict.violation
    assert verdict.counters["requests_shed"] > 0
    assert verdict.counters["busy_replies"] > 0
    assert verdict.counters["view_changes_started"] == 0
    assert verdict.counters["view_changes_damped"] > 0
    assert verdict.counters["offered"] > 0


def test_disabling_damping_regresses_into_view_changes():
    """The counterfactual: the same plan without anti-storm damping loses
    the primary to timeout-driven view changes mid-episode, which the strict
    goodput oracle reports as a violation."""
    plan = overload_plan(OVERLOAD_RATES[0])
    verdict = run_plan(plan, plant="undamped-timers")
    assert verdict.violation is not None
    assert verdict.violation.oracle == "overload-goodput"
    assert verdict.counters["view_changes_started"] > 0
    assert verdict.counters["view_changes_damped"] == 0


def test_overload_run_is_deterministic():
    plan = overload_plan(OVERLOAD_RATES[1])
    a = run_plan(plan)
    b = run_plan(plan)
    assert a.to_dict() == b.to_dict()


def test_generated_overload_plans_are_pure_and_valid():
    for seed in range(8):
        plan = generate_plan(seed, requests=8, family=OVERLOAD)
        assert families(plan) == {OVERLOAD}  # pure overload
        assert validate_plan(plan) == []
        (step,) = plan.steps
        assert step.kind == "overload"
        assert step.rate >= 4.0 * OVERLOAD_SUSTAINABLE
        assert step.clients == OVERLOAD_CLIENTS
        assert step.duration == OVERLOAD_DURATION
        assert step.bandwidth == OVERLOAD_BANDWIDTH


def test_overload_plan_round_trips_through_json():
    plan = generate_plan(3, requests=8, family=OVERLOAD)
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan
    assert clone.to_json() == plan.to_json()


def test_mixed_plan_is_not_pure_overload():
    plan = FaultPlan(
        seed=1,
        requests=8,
        steps=(
            FaultStep(at=0.1, kind="crash", target="R1"),
            make_overload_step(at=0.3),
            FaultStep(at=0.9, kind="restart", target="R1"),
        ),
    )
    assert families(plan) == {OVERLOAD, BENIGN}


def test_overload_step_validation_catches_bad_parameters():
    bad = FaultPlan(
        seed=1,
        requests=8,
        steps=(FaultStep(at=0.1, kind="overload", rate=0.0, clients=0, duration=0.0),),
    )
    problems = validate_plan(bad)
    assert any("rate" in p for p in problems)
    assert any("client" in p for p in problems)
    assert any("duration" in p for p in problems)


def test_explore_overload_smoke():
    """A small overload exploration session: every plan holds, and the
    session is deterministic."""
    result = explore(budget=2, seed=0, requests=8, shrink=False, family=OVERLOAD)
    assert not result.found, result.violation
    assert result.plans_run == 2
    again = explore(budget=2, seed=0, requests=8, shrink=False, family=OVERLOAD)
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        again.to_dict(), sort_keys=True
    )
