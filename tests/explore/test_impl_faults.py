"""Implementation-fault steps in the exploration DSL and runner:
``poison_request`` (deterministic input-triggered crash, contained by the
supervisor) and ``corrupt_object`` (silent state corruption, contained by the
scrubber)."""

import pytest

from repro.bft.config import VARIANTS
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
        plan = generate_plan(seed, family=IMPLEMENTATION)
        assert validate_plan(plan) == [], (seed, validate_plan(plan))
        # The implementation group is inserted ahead of the step budget, so
        # it always survives.
        assert IMPLEMENTATION in families(plan), seed


def test_default_generation_is_unchanged_by_the_new_kinds():
    # Opt-out plans draw no extra randomness: byte-identical to what the
    # pinned determinism tests in test_runner.py expect.
    assert generate_plan(5) == generate_plan(5, family=None)


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


#: Shrunk artifacts of ``repro explore`` with implementation faults at
#: ``--budget 300``, by (variant, master seed): the replica whose service died
#: on the poisoned request went on executing, signed a checkpoint of the
#: half-executed batch and tripped checkpoint-stability.
CRASH_CONTINUATION_ARTIFACTS = {
    ("baseline", 0): FaultPlan(
        seed=1303446976,
        requests=24,
        steps=(FaultStep(at=0.083, kind="poison_request", target="R3"),),
    ),
    ("baseline", 3): FaultPlan(
        seed=728522942,
        requests=24,
        steps=(FaultStep(at=0.0786, kind="poison_request", target="R1"),),
    ),
    ("pipelined", 3): FaultPlan(
        seed=1360714694,
        requests=24,
        steps=(FaultStep(at=0.2048, kind="poison_request", target="R2"),),
        drop_rate=0.021,
    ),
    ("fast-path", 3): FaultPlan(
        seed=429116587,
        requests=24,
        steps=(
            FaultStep(at=0.4825, kind="partition", groups=(("R1", "R2", "R3"), ("R0",))),
            FaultStep(at=0.6526, kind="drop", target="R1", fraction=0.347, duration=0.37),
            FaultStep(at=0.6901, kind="corrupt_object", target="R2", index=3),
            FaultStep(at=1.0487, kind="poison_request", target="R2"),
        ),
        drop_rate=0.043,
    ),
}


@pytest.mark.parametrize(
    "variant, seed", sorted(CRASH_CONTINUATION_ARTIFACTS), ids=lambda cell: str(cell)
)
def test_a_replica_that_died_mid_batch_signs_no_checkpoint(variant, seed):
    plan = CRASH_CONTINUATION_ARTIFACTS[variant, seed]
    outcome = run_plan(plan, config_overrides=VARIANTS[variant].overrides)
    assert outcome.violation is None, outcome.violation
