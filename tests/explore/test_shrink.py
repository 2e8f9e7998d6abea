"""Shrinker properties (with synthetic predicates — no cluster needed) and
repro-artifact round-trips."""

import json

import pytest

from repro.bft.config import VARIANTS
from repro.explore.oracles import Violation
from repro.explore.plan import FaultPlan, FaultStep
from repro.explore.shrink import (
    ShrinkResult,
    artifact_dict,
    load_artifact,
    shrink_plan,
    write_artifact,
)


def _violation(oracle="prefix"):
    return Violation(oracle=oracle, detail="synthetic", time=1.0, event_index=10)


def _steps(n):
    return tuple(FaultStep(at=0.1 * (i + 1), kind="recover", target="R1") for i in range(n))


def _plan(steps, requests=32, perturb_seed=7, drop_rate=0.03, recovery_period=2.5):
    return FaultPlan(
        seed=1,
        requests=requests,
        steps=steps,
        perturb_seed=perturb_seed,
        drop_rate=drop_rate,
        recovery_period=recovery_period,
    )


def test_shrink_finds_single_culprit_step():
    culprit = FaultStep(at=0.4, kind="equivocate", target="R0")
    plan = _plan(_steps(5) + (culprit,))

    def violates(candidate):
        return _violation() if culprit in candidate.steps else None

    result = shrink_plan(plan, _violation(), violates)
    assert result.plan.steps == (culprit,)
    # Parameter simplification also applies once steps are minimal.
    assert result.plan.perturb_seed is None
    assert result.plan.drop_rate == 0.0
    assert result.plan.recovery_period == 0.0
    assert result.plan.requests <= 8


def test_shrink_keeps_interacting_pair():
    s1 = FaultStep(at=0.2, kind="crash", target="R2")
    s2 = FaultStep(at=0.6, kind="restart", target="R2")
    plan = _plan(_steps(4) + (s1, s2))

    def violates(candidate):
        both = s1 in candidate.steps and s2 in candidate.steps
        return _violation() if both else None

    result = shrink_plan(plan, _violation(), violates)
    assert set(result.plan.steps) == {s1, s2}


def test_shrink_requires_same_oracle():
    """A candidate that violates a *different* oracle is not a reduction."""
    plan = _plan(_steps(4))

    def violates(candidate):
        if len(candidate.steps) == len(plan.steps):
            return _violation("prefix")
        return _violation("liveness")  # smaller plans fail differently

    result = shrink_plan(plan, _violation("prefix"), violates)
    assert result.plan.steps == plan.steps
    assert result.violation.oracle == "prefix"


def test_shrink_respects_run_budget():
    plan = _plan(_steps(8))
    calls = []

    def violates(candidate):
        calls.append(candidate)
        return _violation()

    result = shrink_plan(plan, _violation(), violates, max_runs=5)
    assert len(calls) <= 5
    assert result.runs <= 5


def test_shrink_result_still_violates():
    """The returned plan's violation came from an actual predicate run."""
    plan = _plan(_steps(6))

    def violates(candidate):
        return _violation() if candidate.steps else None

    result = shrink_plan(plan, _violation(), violates)
    assert isinstance(result, ShrinkResult)
    assert len(result.plan.steps) == 1
    assert violates(result.plan) is not None


# -- artifacts --------------------------------------------------------------------


def test_artifact_roundtrip(tmp_path):
    plan = _plan(_steps(2))
    violation = _violation("commit-agreement")
    path = tmp_path / "repro.json"
    write_artifact(path, plan, violation, plant="weak-prepare-quorum", original_plan=_plan(_steps(5)))
    loaded_plan, recorded, plant, options = load_artifact(path)
    assert loaded_plan == plan
    assert recorded == violation.to_dict()
    assert plant == "weak-prepare-quorum"
    assert options == {"shards": 1, "check_interval": 10, "config_overrides": None}


def test_artifact_records_only_non_default_run_options(tmp_path):
    """Default artifacts stay byte-identical to the files written before the
    run options existed; non-default options round-trip into run_plan kwargs."""
    plan, violation = _plan(_steps(2)), _violation()
    assert set(artifact_dict(plan, violation)) == {"version", "plan", "violation", "plant"}
    overrides = VARIANTS["speculation"].overrides
    path = tmp_path / "repro.json"
    write_artifact(
        path, plan, violation, shards=4, check_interval=3, config_overrides=overrides
    )
    assert load_artifact(path)[3] == {
        "shards": 4,
        "check_interval": 3,
        "config_overrides": overrides,
    }


def test_artifact_is_stable_json(tmp_path):
    plan = _plan(_steps(1))
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    write_artifact(path_a, plan, _violation())
    write_artifact(path_b, plan, _violation())
    assert path_a.read_text() == path_b.read_text()


def test_load_artifact_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    data = {"version": 99, "plan": _plan(()).to_dict(), "violation": _violation().to_dict()}
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_artifact(path)
