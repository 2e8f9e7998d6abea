"""Fault-plan DSL: codec round-trips, seeded generation, validation."""

import hashlib
import json

import pytest

from repro.explore.interpreter import (
    BENIGN,
    BYZANTINE,
    kinds_of,
    targets,
    validate_plan,
)
from repro.explore.plan import FaultPlan, FaultStep, generate_plan
from repro.soak.campaign import generate_campaign


def test_plan_json_roundtrip_is_identity():
    for seed in range(30):
        plan = generate_plan(seed)
        assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_json_is_canonical():
    plan = generate_plan(4)
    assert plan.to_json() == FaultPlan.from_json(plan.to_json()).to_json()


def test_same_seed_generates_byte_identical_plans():
    for seed in (0, 1, 17, 12345):
        assert generate_plan(seed).to_json() == generate_plan(seed).to_json()


def test_different_seeds_generate_different_plans():
    plans = {generate_plan(seed).to_json() for seed in range(20)}
    assert len(plans) > 10  # collisions allowed, but the stream must vary


def test_generated_plans_are_valid():
    for seed in range(50):
        plan = generate_plan(seed)
        assert validate_plan(plan) == [], (seed, plan.to_json())


def test_generated_plans_respect_max_steps_and_f():
    for seed in range(50):
        plan = generate_plan(seed, max_steps=4)
        assert len(plan.steps) <= 4
        assert len(targets(plan, BYZANTINE)) <= 1  # f = 1


def test_steps_sorted_by_time():
    for seed in range(30):
        times = [step.at for step in generate_plan(seed).steps]
        assert times == sorted(times)


def test_step_kinds_partitioned():
    for seed in range(30):
        for step in generate_plan(seed).steps:
            assert step.kind in kinds_of(BENIGN) | kinds_of(BYZANTINE)


def test_sparse_step_encoding_omits_defaults():
    step = FaultStep(at=0.5, kind="crash", target="R1")
    encoded = step.to_dict()
    assert "fraction" not in encoded and "groups" not in encoded
    assert FaultStep.from_dict(encoded) == step


def test_validate_rejects_unpaired_crash():
    plan = FaultPlan(
        seed=1, requests=8, steps=(FaultStep(at=0.1, kind="crash", target="R1"),)
    )
    assert any("crash" in problem for problem in validate_plan(plan))


def test_validate_rejects_too_many_byzantine():
    plan = FaultPlan(
        seed=1,
        requests=8,
        steps=(
            FaultStep(at=0.1, kind="equivocate", target="R0"),
            FaultStep(at=0.2, kind="corrupt_votes", target="R1"),
        ),
    )
    assert any("byzantine" in problem.lower() for problem in validate_plan(plan))


def test_validate_rejects_unsorted_steps():
    plan = FaultPlan(
        seed=1,
        requests=8,
        steps=(
            FaultStep(at=0.5, kind="crash", target="R1"),
            FaultStep(at=0.1, kind="restart", target="R1"),
        ),
    )
    assert validate_plan(plan) != []


def test_from_dict_rejects_unknown_version():
    plan = generate_plan(0)
    payload = plan.to_dict()
    payload["version"] = 99
    with pytest.raises(ValueError):
        FaultPlan.from_dict(payload)


# -- cross-commit pins ---------------------------------------------------------------
# The generators' RNG draw order and the codec's bytes are what make every
# recorded artifact and every explore / soak pin replayable; recorded at
# ea86f3c, before the step table became the only place that knows a kind.

GENERATOR_STREAM = "48cd3d17f9b159f175049605c37e2f52642aa8b9939ff3c1d32817864b241e10"


def test_generator_stream_matches_the_parent_commit():
    stream = hashlib.sha256()

    def feed(plan):
        assert FaultPlan.from_json(plan.to_json()) == plan
        stream.update(plan.to_json().encode())

    for seed in range(400):
        for kw in (
            {},
            {"family": "implementation"},
            {"family": "overload"},
            {"family": "destruction"},
            {"max_steps": 3},
        ):
            feed(generate_plan(seed, **kw))
    for seed in range(20):
        for kw in ({}, {"watchdog": False}, {"hours": 0.5, "storms": 5}):
            feed(generate_campaign(seed, **kw))
    assert stream.hexdigest() == GENERATOR_STREAM

#: sha256 over ``generate_plan(seed, requests=8 + seed % 17, ...)`` for seeds
#: 0-49, one stream per opt-in family (None: no family), recorded while each
#: family was still its own boolean keyword
#: (``implementation_faults=``, ``overload=``, ``destruction=``).
FAMILY_STREAMS = {
    None: "41862b70e3868a36c150490c84b390dd8e68b9c7bc5d0dbcd7cbbc8cf52a89d6",
    "implementation": "21ef10785c2f4188d10cdee8488a56a77b5abc2b63b72b3850b8c16de1920339",
    "overload": "5fc88918d63244ed7985857d2f8efbb5eb46d40000db0831b3e1465ff66a118a",
    "destruction": "163ba78d58e35cb3e8a55d84aba453c16055b64cbe3126b6748e525100b1d798",
}


@pytest.mark.parametrize("family", list(FAMILY_STREAMS))
def test_each_family_generates_the_plans_of_the_parent_commit(family):
    stream = hashlib.sha256()
    for seed in range(50):
        plan = generate_plan(seed, requests=8 + seed % 17, family=family)
        stream.update(plan.to_json().encode())
    assert stream.hexdigest() == FAMILY_STREAMS[family]



def test_step_encoding_matches_the_parent_commit():
    full = FaultStep(
        at=1.25,
        kind="overload",
        target="R2",
        groups=(("R0", "R1"), ("R2", "R3")),
        fraction=0.25,
        duration=1.5,
        index=3,
        rate=600.0,
        clients=8,
        bandwidth=40000.0,
        region="eu-west",
        count=2,
        factor=2.5,
    )
    bare = FaultStep(at=0.5, kind="heal")

    def encode(step):
        return json.dumps(step.to_dict(), sort_keys=True, separators=(",", ":"))

    assert encode(full) == (
        '{"at":1.25,"bandwidth":40000.0,"clients":8,"count":2,"duration":1.5,'
        '"factor":2.5,"fraction":0.25,"groups":[["R0","R1"],["R2","R3"]],'
        '"index":3,"kind":"overload","rate":600.0,"region":"eu-west","target":"R2"}'
    )
    assert encode(bare) == '{"at":0.5,"kind":"heal"}'
    assert FaultStep.from_dict(json.loads(encode(full))) == full
    assert FaultStep.from_dict(json.loads(encode(bare))) == bare
