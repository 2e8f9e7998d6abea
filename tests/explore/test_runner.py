"""End-to-end exploration: determinism, clean runs, planted-bug detection,
shrinking, and artifact replay.  These are the acceptance tests for the
exploration subsystem — a planted protocol regression must be found within a
small budget, shrink to a handful of fault steps, and replay exactly."""

import json

import pytest

from repro.explore import (
    FaultPlan,
    FaultStep,
    explore,
    generate_plan,
    load_artifact,
    run_plan,
)
from repro.explore.shrink import write_artifact
from repro.faults.plant import PLANTED_BUGS


def test_clean_plans_hold_every_oracle():
    """An honest implementation passes every oracle on generated plans."""
    result = explore(budget=6, seed=0, requests=12, shrink=False)
    assert not result.found, result.violation
    assert result.plans_run == 6
    assert len(result.verdicts) == 6


def test_exploration_is_deterministic():
    def session():
        return explore(budget=4, seed=5, requests=10, shrink=False).to_dict()

    first, second = session(), session()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_run_plan_verdict_is_deterministic():
    plan = generate_plan(1234, requests=10)
    a = run_plan(plan)
    b = run_plan(plan)
    assert a.to_dict() == b.to_dict()


#: The fault family a plant's plans need; the others are reached by the
#: default (benign) plans.  Damping only acts under saturation.
PLANT_FAMILY = {"undamped-timers": "overload"}


@pytest.mark.parametrize(
    "plant,seed,budget",
    [
        ("weak-prepare-quorum", 0, 10),
        ("blind-checkpoint-certs", 1, 10),
        ("undamped-timers", 0, 5),
    ],
)
def test_planted_bug_found_and_shrunk(plant, seed, budget, tmp_path):
    """The acceptance criterion: exploration finds the planted regression
    within budget, shrinks the repro to <= 3 fault steps, and the artifact
    replays to the exact same violation."""
    assert plant in PLANTED_BUGS
    family = PLANT_FAMILY.get(plant)
    result = explore(budget=budget, seed=seed, requests=16, plant=plant, family=family)
    assert result.found, f"{plant} not found in {budget} plans"
    assert result.shrunk_plan is not None
    assert len(result.shrunk_plan.steps) <= 3

    path = tmp_path / "repro.json"
    write_artifact(path, result.shrunk_plan, result.shrunk_violation, plant=plant)
    loaded_plan, recorded, loaded_plant, options = load_artifact(path)
    outcome = run_plan(loaded_plan, plant=loaded_plant, **options)
    assert outcome.violation is not None
    assert outcome.violation.oracle == recorded["oracle"]
    assert outcome.violation.detail == recorded["detail"]
    assert outcome.violation.event_index == recorded["event_index"]


def test_weak_quorum_violation_is_a_safety_oracle():
    """The weakened-quorum bug must break a *safety* property (commit
    agreement or execution order), not merely stall the cluster."""
    result = explore(budget=10, seed=0, requests=16, plant="weak-prepare-quorum", shrink=False)
    assert result.found
    assert result.violation.oracle in ("commit-agreement", "prefix", "at-most-once")


def test_clean_replay_of_violating_plan_passes():
    """The violation needs the plant: replaying the same plan against the
    honest implementation passes every oracle (it is a regression test, not
    an environment artifact)."""
    result = explore(budget=10, seed=0, requests=16, plant="weak-prepare-quorum", shrink=False)
    assert result.found
    outcome = run_plan(result.plan, plant=None)
    assert outcome.violation is None


def test_byzantine_steps_do_not_trip_oracles_on_honest_cluster():
    """Allowed Byzantine behavior (<= f, own keys only) must be masked by an
    honest implementation: inject each kind directly and expect no violation."""
    for kind in ("equivocate", "lie_checkpoint", "corrupt_votes", "corrupt_results"):
        plan = FaultPlan(
            seed=11,
            requests=12,
            steps=(FaultStep(at=0.1, kind=kind, target="R1"),),
        )
        outcome = run_plan(plan)
        assert outcome.violation is None, (kind, outcome.violation)


def test_explore_stops_at_first_violation():
    result = explore(budget=50, seed=0, requests=16, plant="weak-prepare-quorum", shrink=False)
    assert result.found
    assert result.plans_run < 50
    assert result.verdicts[-1]["outcome"]["violation"] is not None
