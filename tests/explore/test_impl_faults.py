"""Implementation-fault steps in the exploration DSL and runner:
``poison_request`` (deterministic input-triggered crash, contained by the
supervisor) and ``corrupt_object`` (silent state corruption, contained by the
scrubber)."""

from repro.explore.interpreter import IMPLEMENTATION, families, validate_plan
from repro.explore.plan import FaultPlan, FaultStep, generate_plan
from repro.explore.runner import run_plan


def test_corrupt_object_index_round_trips():
    step = FaultStep(at=0.25, kind="corrupt_object", target="R2", index=5)
    plan = FaultPlan(seed=7, requests=8, steps=(step,))
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    assert again.steps[0].index == 5


def test_implementation_steps_need_a_target():
    plan = FaultPlan(seed=1, requests=8, steps=(FaultStep(at=0.1, kind="poison_request"),))
    assert any("needs a target" in problem for problem in validate_plan(plan))


def test_implementation_faults_share_the_f_budget_with_byzantine():
    plan = FaultPlan(
        seed=1,
        requests=8,
        steps=(
            FaultStep(at=0.1, kind="poison_request", target="R1"),
            FaultStep(at=0.2, kind="equivocate", target="R2"),
        ),
    )
    assert any("faulty" in problem for problem in validate_plan(plan))
    # Both faults on the same replica stay within f=1.
    plan = FaultPlan(
        seed=1,
        requests=8,
        steps=(
            FaultStep(at=0.1, kind="poison_request", target="R1"),
            FaultStep(at=0.2, kind="corrupt_object", target="R1", index=3),
        ),
    )
    assert validate_plan(plan) == []


def test_crash_overlapping_a_poisoned_replica_is_flagged():
    plan = FaultPlan(
        seed=1,
        requests=8,
        steps=(
            FaultStep(at=0.1, kind="poison_request", target="R1"),
            FaultStep(at=0.2, kind="crash", target="R2"),
            FaultStep(at=0.4, kind="restart", target="R2"),
        ),
    )
    assert any("overlap the poisoned" in problem for problem in validate_plan(plan))


def test_generated_impl_plans_are_valid_and_contain_impl_steps():
    for seed in range(12):
        plan = generate_plan(seed, implementation_faults=True)
        assert validate_plan(plan) == [], (seed, validate_plan(plan))
        # The implementation group is inserted ahead of the step budget, so
        # it always survives.
        assert IMPLEMENTATION in families(plan), seed


def test_default_generation_is_unchanged_by_the_new_kinds():
    # Opt-out plans draw no extra randomness: byte-identical to what the
    # pinned determinism tests in test_runner.py expect.
    assert generate_plan(5) == generate_plan(5, implementation_faults=False)


def test_poisoned_request_is_masked_without_violation():
    plan = FaultPlan(
        seed=3,
        requests=16,
        steps=(FaultStep(at=0.2, kind="poison_request", target="R2"),),
    )
    outcome = run_plan(plan)
    assert outcome.violation is None
    assert outcome.completed == 16  # the workload never saw the crash


def test_corrupt_object_is_scrubbed_without_violation():
    plan = FaultPlan(
        seed=4,
        requests=16,
        steps=(FaultStep(at=0.3, kind="corrupt_object", target="R1", index=2),),
    )
    outcome = run_plan(plan)
    assert outcome.violation is None
    assert outcome.completed == 16
