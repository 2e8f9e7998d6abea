"""Campaign plans: codec back-compat, validation, beyond-assumption
windows, storm-geometry determinism, and the seeded generator."""

import pytest

from repro.explore.interpreter import (
    CAMPAIGN,
    beyond_assumption_windows,
    families,
    kinds_of,
    storm_rng,
    validate_plan,
)
from repro.explore.plan import FaultPlan, FaultStep
from repro.soak.campaign import campaign_horizon, generate_campaign


def campaign_plan(**overrides):
    fields = dict(
        seed=3,
        requests=0,
        topology="wan3",
        steps=(
            FaultStep(at=5.0, kind="age_replicas", fraction=1e-4),
            FaultStep(at=10.0, kind="partition_storm", count=3, duration=40.0),
            FaultStep(at=20.0, kind="latency_spike", factor=2.5, duration=30.0),
            FaultStep(at=30.0, kind="flash_crowd", rate=8.0, clients=2, duration=20.0),
            FaultStep(at=50.0, kind="region_outage", region="eu-west", duration=15.0),
        ),
    )
    fields.update(overrides)
    return FaultPlan(**fields)


def test_campaign_plan_round_trips():
    plan = campaign_plan()
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert families(plan) == {CAMPAIGN}
    assert validate_plan(plan) == []


def test_plain_plan_json_has_no_campaign_keys():
    """Back-compat: a pre-campaign plan serializes byte-identically — no
    topology key, no region/count/factor on steps."""
    plan = FaultPlan(
        seed=1, requests=4, steps=(FaultStep(at=0.5, kind="crash", target="R1"),)
    )
    data = plan.to_dict()
    assert "topology" not in data
    assert CAMPAIGN not in families(plan)
    step = data["steps"][0]
    for key in ("region", "count", "factor"):
        assert key not in step


@pytest.mark.parametrize(
    "step, problem",
    [
        (FaultStep(at=1.0, kind="region_outage", region="eu-west", duration=5.0), "topology"),
        (FaultStep(at=1.0, kind="partition_storm", count=2, duration=5.0), "topology"),
        (FaultStep(at=1.0, kind="latency_spike", factor=2.0, duration=5.0), "topology"),
    ],
)
def test_topology_steps_require_a_topology(step, problem):
    plan = FaultPlan(seed=1, requests=0, steps=(step,))
    problems = validate_plan(plan)
    assert problems and problem in problems[0]


@pytest.mark.parametrize(
    "step",
    [
        FaultStep(at=1.0, kind="region_outage", region="atlantis", duration=5.0),
        FaultStep(at=1.0, kind="region_outage", region="eu-west", duration=0.0),
        FaultStep(at=1.0, kind="partition_storm", count=0, duration=5.0),
        FaultStep(at=1.0, kind="latency_spike", factor=1.0, duration=5.0),
        FaultStep(at=1.0, kind="flash_crowd", rate=0.0, clients=2, duration=5.0),
        FaultStep(at=1.0, kind="flash_crowd", rate=4.0, clients=0, duration=5.0),
        FaultStep(at=1.0, kind="age_replicas", target="R9"),
    ],
)
def test_invalid_campaign_steps_rejected(step):
    plan = FaultPlan(seed=1, requests=0, topology="wan3", steps=(step,))
    assert validate_plan(plan)


def test_unknown_topology_rejected():
    plan = FaultPlan(seed=1, requests=0, topology="atlantis")
    assert validate_plan(plan)


def test_beyond_assumption_windows_only_for_outages_exceeding_f():
    """On wan3 only us-east holds 2 > f replicas; a one-replica region
    outage stays within assumptions and declares nothing."""
    over_f = FaultPlan(
        seed=1,
        requests=0,
        topology="wan3",
        steps=(FaultStep(at=100.0, kind="region_outage", region="us-east", duration=50.0),),
    )
    assert beyond_assumption_windows(over_f, margin=30.0) == [(100.0, 180.0)]

    within_f = FaultPlan(
        seed=1,
        requests=0,
        topology="wan3",
        steps=(FaultStep(at=100.0, kind="region_outage", region="eu-west", duration=50.0),),
    )
    assert beyond_assumption_windows(within_f, margin=30.0) == []


def test_beyond_assumption_windows_merge_overlaps():
    plan = FaultPlan(
        seed=1,
        requests=0,
        topology="wan3",
        steps=(
            FaultStep(at=100.0, kind="region_outage", region="us-east", duration=50.0),
            FaultStep(at=160.0, kind="region_outage", region="us-east", duration=20.0),
            FaultStep(at=500.0, kind="region_outage", region="us-east", duration=10.0),
        ),
    )
    assert beyond_assumption_windows(plan, margin=30.0) == [
        (100.0, 210.0),
        (500.0, 540.0),
    ]


def test_storm_rng_is_a_pure_function_of_plan_and_step():
    step = FaultStep(at=12.5, kind="partition_storm", count=3, duration=60.0)
    a = [storm_rng(7, step).random() for _ in range(4)]
    b = [storm_rng(7, step).random() for _ in range(4)]
    assert a == b
    other = FaultStep(at=13.5, kind="partition_storm", count=3, duration=60.0)
    assert storm_rng(7, other).random() != a[0]
    assert storm_rng(8, step).random() != a[0]


def test_generated_campaign_is_valid_and_sorted():
    plan = generate_campaign(7, hours=0.5)
    assert validate_plan(plan) == []
    assert plan.topology == "wan3"
    ats = [step.at for step in plan.steps]
    assert ats == sorted(ats)
    kinds = {step.kind for step in plan.steps}
    assert kinds <= kinds_of(CAMPAIGN)
    assert {"partition_storm", "flash_crowd", "region_outage", "age_replicas"} <= kinds
    assert campaign_horizon(plan) == max(s.at + s.duration for s in plan.steps) + 60.0


def test_watchdog_contrast_differs_only_in_rotation():
    on = generate_campaign(7, hours=0.5, watchdog=True)
    off = generate_campaign(7, hours=0.5, watchdog=False)
    assert on.steps == off.steps
    assert on.seed == off.seed
    assert on.recovery_period > 0.0
    assert off.recovery_period == 0.0
