"""Differential protocol-equivalence suite (satellite of the fast path).

Every test replays one seeded fault plan through the configuration ladder in
:mod:`tests.bft.differential` — the rows of ``VARIANTS``: baseline,
pipelined, speculation, fast path — and demands byte-identical committed
sequences and client replies on everything the configurations have in
common, plus a clean bill from every safety oracle in every configuration.
"""

from __future__ import annotations

import random

import pytest

from repro.explore.plan import FaultPlan, FaultStep, generate_plan
from tests.bft.differential import compare_outcomes, run_differential

# 20 generated fault schedules (crashes, restarts, partitions, drops,
# Byzantine behaviors, proactive recovery), derived exactly like an
# exploration session so coverage matches what `repro explore` would run.
_GENERATED_SEEDS = [random.Random(0xD1FF).randrange(2**31) for _ in range(20)]


@pytest.mark.parametrize("seed", _GENERATED_SEEDS)
def test_generated_plans_equivalent(seed):
    plan = generate_plan(seed, requests=16)
    verdict = run_differential(plan)
    assert verdict.equivalent, verdict.describe()


def test_quiet_plan_exercises_every_mechanism():
    """On a fault-free plan the ladder must be equivalent *and* the fast-path
    runs must demonstrably use their mechanisms — a dormant fast path would
    make the whole suite vacuous."""
    plan = FaultPlan(seed=77, requests=24, steps=[])
    verdict = run_differential(plan)
    assert verdict.equivalent, verdict.describe()
    assert verdict.outcomes["baseline"].counters["spec_batches"] == 0
    for name in ("speculation", "fast-path"):
        counters = verdict.outcomes[name].counters
        assert counters["spec_batches"] > 0, f"{name} never speculated"
        assert counters["spec_promotions"] > 0, f"{name} never promoted"
        assert counters["tentative_replies_accepted"] > 0, (
            f"{name}: client never accepted a tentative quorum"
        )
    assert verdict.outcomes["fast-path"].counters["lease_grants"] > 0


def test_primary_crash_during_speculation():
    """A view change while batches are speculated: the fast path must roll
    back and re-converge on the new primary's order, with histories and
    replies still byte-identical to the baseline protocol's."""
    plan = FaultPlan(
        seed=11,
        requests=24,
        steps=[
            FaultStep(kind="crash", at=0.02, target="R0"),
            FaultStep(kind="restart", at=0.3, target="R0"),
        ],
    )
    verdict = run_differential(plan)
    assert verdict.equivalent, verdict.describe()
    counters = verdict.outcomes["fast-path"].counters
    assert counters["view_changes_started"] > 0, "plan never forced a view change"
    assert counters["spec_rollbacks"] > 0, (
        "view change never caught open speculation frames — the scenario "
        "this test exists for did not occur"
    )


def test_repeated_primary_crashes():
    """Back-to-back view changes (two primaries in sequence die) under the
    full ladder."""
    plan = FaultPlan(
        seed=23,
        requests=24,
        steps=[
            FaultStep(kind="crash", at=0.02, target="R0"),
            FaultStep(kind="restart", at=0.25, target="R0"),
            FaultStep(kind="crash", at=0.4, target="R1"),
            FaultStep(kind="restart", at=0.6, target="R1"),
        ],
    )
    verdict = run_differential(plan)
    assert verdict.equivalent, verdict.describe()


def test_partitioned_primary():
    """The primary is isolated (not crashed): speculation on the majority
    side must survive the resulting view change."""
    plan = FaultPlan(
        seed=31,
        requests=20,
        steps=[
            FaultStep(
                kind="partition", at=0.02, groups=(("R0",), ("R1", "R2", "R3"))
            ),
            FaultStep(kind="heal", at=0.35),
        ],
    )
    verdict = run_differential(plan)
    assert verdict.equivalent, verdict.describe()


def test_lossy_network():
    """Message loss stresses retransmission through the duplicate-request
    path, where a tentative reply must never be re-sent as committed."""
    plan = FaultPlan(seed=47, requests=20, steps=[], drop_rate=0.08)
    verdict = run_differential(plan)
    assert verdict.equivalent, verdict.describe()


def test_differential_detects_divergent_replies():
    """The harness itself must be able to fail: tamper with one
    configuration's recorded replies and the comparison must flag it."""
    plan = FaultPlan(seed=5, requests=8, steps=[])
    verdict = run_differential(plan, variants=("baseline", "pipelined"))
    assert verdict.equivalent, verdict.describe()
    verdict.outcomes["pipelined"].client_replies[3] = b"CORRUPT"
    tampered = compare_outcomes(plan, verdict.outcomes, ["baseline", "pipelined"])
    assert not tampered.equivalent
    assert any("request 3" in m for m in tampered.mismatches), tampered.mismatches


def test_differential_detects_reordered_history():
    """Tampering with the committed sequence must be flagged too."""
    plan = FaultPlan(seed=5, requests=8, steps=[])
    verdict = run_differential(plan, variants=("baseline", "pipelined"))
    history = verdict.outcomes["pipelined"].committed_history
    assert len(history) >= 2
    history[0], history[1] = history[1], history[0]
    tampered = compare_outcomes(plan, verdict.outcomes, ["baseline", "pipelined"])
    assert not tampered.equivalent
    assert any("committed sequence" in m for m in tampered.mismatches), (
        tampered.mismatches
    )
