"""Sharded exploration: plans against multi-group deployments, the
cross-shard atomicity oracle, the planted 2PC regression, and artifacts."""

import json

from repro.explore.interpreter import DESTRUCTION, families
from repro.explore.plan import FaultPlan, FaultStep, generate_plan
from repro.explore.runner import explore, run_plan
from repro.explore.shrink import artifact_dict, load_artifact, write_artifact


def test_benign_plan_holds_all_oracles():
    plan = generate_plan(12345, requests=16)
    outcome = run_plan(plan, shards=2)
    assert outcome.violation is None
    assert outcome.completed > 0
    # The workload exercised the transaction layer.
    assert outcome.counters["txns_started"] > 0


def test_runs_are_deterministic():
    plan = generate_plan(777, requests=12)
    first = run_plan(plan, shards=2)
    second = run_plan(plan, shards=2)
    assert first.to_dict() == second.to_dict()


def test_planted_split_brain_is_caught_and_shrunk():
    result = explore(
        budget=5, seed=0, requests=16, shards=2, plant="split-brain-decide"
    )
    assert result.found
    assert result.violation.oracle == "cross-shard-atomicity"
    assert "committed at shard0" in result.violation.detail
    assert result.shrunk_plan is not None
    assert len(result.shrunk_plan.steps) <= len(result.plan.steps)
    assert result.shrunk_violation.oracle == "cross-shard-atomicity"


def test_shrunk_plan_replays_to_the_same_violation():
    result = explore(
        budget=5, seed=0, requests=16, shards=2, plant="split-brain-decide"
    )
    outcome = run_plan(result.shrunk_plan, shards=2, plant="split-brain-decide")
    assert outcome.violation is not None
    assert outcome.violation.oracle == result.shrunk_violation.oracle
    assert outcome.violation.detail == result.shrunk_violation.detail


def test_artifact_records_the_shard_count(tmp_path):
    result = explore(
        budget=5, seed=0, requests=16, shards=2, plant="split-brain-decide"
    )
    path = tmp_path / "repro.json"
    write_artifact(path, result.shrunk_plan, result.shrunk_violation, shards=2)
    plan, recorded, _plant, options = load_artifact(path)
    assert plan == result.shrunk_plan
    assert recorded["oracle"] == "cross-shard-atomicity"
    assert options["shards"] == 2
    assert json.loads(path.read_text())["shards"] == 2


def test_forged_decide_is_rejected_not_split_brained():
    """The hardened decide path turns a coordinator forging certificate-less
    commits from a split-brain catastrophe into a non-event: every forged
    decide is refused, nothing applies, and no oracle fires."""
    result = explore(
        budget=3, seed=0, requests=16, shards=2, plant="forged-decide", shrink=False
    )
    assert not result.found
    rejected = sum(
        v["outcome"]["counters"]["txn_decides_rejected"] for v in result.verdicts
    )
    applied = sum(
        v["outcome"]["counters"]["txn_commits_applied"] for v in result.verdicts
    )
    assert rejected > 0
    assert applied == 0


def test_destruction_plan_reconstructs_and_stays_safe():
    plan = generate_plan(1, family=DESTRUCTION)
    assert DESTRUCTION in families(plan)
    outcome = run_plan(plan, shards=2)
    assert outcome.violation is None
    assert outcome.counters["fusion_reconstructions_completed"] == 1
    assert outcome.counters["fusion_reconstructions_failed"] == 0
    assert outcome.counters["fusion_replicas_seeded"] == 4
    assert outcome.counters["fusion_destroys_skipped"] == 0


def test_group_destroyed_while_the_rotation_has_a_replica_mid_reboot():
    """The sixth plan of ``repro explore --shards 2 --family destruction``:
    the proactive rotation (period 2.88) took one replica of shard 1 down for
    its reboot just before the group is destroyed, so that host refuses the
    tier's ``recover_now`` until its own reboot ends.  The tier has to come
    back for it, or the episode times out with three replicas seeded."""
    plan = FaultPlan(
        seed=1746026529,
        requests=16,
        steps=(FaultStep(at=2.0814, kind="destroy_group", index=1),),
        recovery_period=2.88,
    )
    outcome = run_plan(plan, shards=2)
    assert outcome.violation is None
    assert outcome.counters["fusion_reconstructions_completed"] == 1
    assert outcome.counters["fusion_replicas_seeded"] == 4


def test_destruction_runs_are_deterministic():
    plan = generate_plan(2, family=DESTRUCTION)
    first = run_plan(plan, shards=2)
    second = run_plan(plan, shards=2)
    assert first.to_dict() == second.to_dict()


def test_default_plans_never_destroy():
    """The destruction family is opt-in: the default plan stream must stay
    byte-identical across versions, destroy steps included."""
    for seed in range(30):
        assert DESTRUCTION not in families(generate_plan(seed))


def test_single_group_artifacts_carry_no_shard_key():
    plan = generate_plan(1, requests=8)
    violation_stub = type(
        "V", (), {"to_dict": lambda self: {"oracle": "x", "detail": "d"}}
    )()
    assert "shards" not in artifact_dict(plan, violation_stub)
    assert artifact_dict(plan, violation_stub, shards=4)["shards"] == 4
