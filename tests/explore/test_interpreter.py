"""The one fault-plan interpreter: its step-kind x deployment support matrix
(every rejection any entry point makes, as one table) and cross-commit pins
proving the unified interpreter reproduces the three it replaced."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

import repro.explore.interpreter as interpreter
import repro.explore.runner as explore_runner
import repro.soak.runner as soak_runner
from repro.bft.config import VARIANTS
from repro.explore.interpreter import (
    DEPLOYMENTS,
    DESTRUCTION,
    IMPLEMENTATION,
    SHARDED,
    SINGLE,
    SOAK,
    STEP_TABLE,
    check_supported,
    malformed,
    outside_assumptions,
    unsupported_kinds,
    validate_plan,
)
from repro.explore.oracles import ORACLES
from repro.explore.plan import FaultPlan, FaultStep, generate_plan
from repro.explore.runner import explore, run_plan
from repro.soak.campaign import generate_campaign
from repro.soak.runner import SoakSLO, run_soak

EVERYWHERE = {SINGLE, SHARDED, SOAK}
ONE_GROUP = {SINGLE, SOAK}

#: The support matrix, stated independently of the code's table (it is also
#: the table in docs/simulation.md): step kind -> deployments that run it.
#: ``client_swarm`` is no step kind at all and must be refused everywhere.
MATRIX = {
    "crash": EVERYWHERE,
    "restart": EVERYWHERE,
    "partition": EVERYWHERE,
    "heal": EVERYWHERE,
    "drop": EVERYWHERE,
    "recover": EVERYWHERE,
    "equivocate": EVERYWHERE,
    "lie_checkpoint": EVERYWHERE,
    "corrupt_votes": EVERYWHERE,
    "corrupt_results": EVERYWHERE,
    "fabricate_cert": EVERYWHERE,
    "poison_request": {SINGLE},
    "corrupt_object": {SINGLE},
    "overload": {SINGLE},
    "region_outage": ONE_GROUP,
    "partition_storm": ONE_GROUP,
    "latency_spike": ONE_GROUP,
    "flash_crowd": ONE_GROUP,
    "age_replicas": ONE_GROUP,
    "destroy_group": {SHARDED},
    "client_swarm": set(),
}


def test_matrix_covers_exactly_the_dsl():
    assert set(STEP_TABLE) == set(MATRIX) - {"client_swarm"}


def test_the_documented_table_is_the_step_table():
    """docs/simulation.md, "One interpreter, three deployments": every cell
    of its step-kind table, compared with the row it describes."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "simulation.md"
    section = doc.read_text().split("#### One interpreter, three deployments")[1]
    table = section.split("| step kinds |")[1].split("\n\n")[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in table.splitlines()[2:]  # past the header's tail and the rule
    ]
    documented = {}
    for kinds, family, needs, *cells in rows:
        family, _, regional = family.partition(", ")
        deployments = {d for d, cell in zip((SINGLE, SHARDED, SOAK), cells) if cell == "yes"}
        assert set(cells) <= {"yes", "no"} and regional in ("", "regional")
        for kind in re.findall(r"`(\w+)`", kinds):
            assert kind not in documented, f"{kind} documented twice"
            documented[kind] = (
                family, tuple(re.findall(r"`(\w+)`", needs)), bool(regional), deployments
            )
    assert documented == {
        kind: (row.family, row.needs, row.regional, set(row.deployments))
        for kind, row in STEP_TABLE.items()
    }


def test_the_documented_deployments_are_the_deployment_table():
    """docs/simulation.md's deployment table: every cell that is data rather
    than prose (base fields, planted bugs, oracles, verdict counters),
    compared with the ``DEPLOYMENTS`` row it describes."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "simulation.md"
    section = doc.read_text().split("#### One interpreter, three deployments")[1]
    table = section.split("| deployment |")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines()[2:]:  # past the header's tail and the rule
        name, _entry, fields, plants, oracles, counters, _built, _driven = (
            cell.strip() for cell in line.strip("|").split("|")
        )
        documented[name.strip("`")] = (
            {key: int(value) for key, value in re.findall(r"`(\w+)=(\d+)`", fields)},
            set(re.findall(r"`([\w-]+)`", plants)),
            tuple(re.findall(r"`([\w-]+)`", oracles)),
            tuple(re.findall(r"`(\w+)`", counters)),
        )
    assert list(documented) == list(DEPLOYMENTS)
    assert documented == {
        name: (row.fields, set(row.plants), row.oracles, row.counters)
        for name, row in DEPLOYMENTS.items()
    }


def test_the_documented_oracles_are_the_oracle_table():
    """docs/simulation.md's oracle table: its continuously judged rows are
    ``ORACLES``, cell by cell and in check order, beside the two oracles
    judged once; and every deployment names its rows in that order."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "simulation.md"
    table = doc.read_text().split("| oracle |")[1].split("\n\n")[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in table.splitlines()[2:]  # past the header's tail and the rule
    ]
    continuous = [
        (name.strip("`"), checks)
        for name, checks, judged, _property in rows
        if judged == "every `check_interval` events"
    ]
    assert continuous == [(name, row.scope) for name, row in ORACLES.items()]
    judged_once = {name.strip("`"): judged for name, _checks, judged, _ in rows[len(continuous):]}
    assert judged_once == {
        "overload-goodput": "at an overload episode's end",
        "liveness": "after the heal",
    }
    for row in DEPLOYMENTS.values():
        assert list(row.oracles) == [name for name in ORACLES if name in row.oracles]


def test_every_deployment_named_anywhere_is_a_row():
    named = {name for row in STEP_TABLE.values() for name in row.deployments}
    named |= {name for row in VARIANTS.values() for name in row.deployments}
    assert named <= set(DEPLOYMENTS)
    with pytest.raises(ValueError, match="unknown deployment 'nfs-hetero'"):
        check_supported(FaultPlan(seed=1, requests=4), "nfs-hetero")


def plan_with(kind: str, deployment: str) -> FaultPlan:
    """A structurally valid plan (validate_plan-clean for every kind a soak
    run refuses) whose one step has the given kind."""
    step = FaultStep(
        at=1.0,
        kind=kind,
        target="R1",
        groups=(("R0", "R1"), ("R2", "R3")),
        fraction=0.2,
        duration=2.0,
        rate=100.0,
        clients=2,
        region="us-east",
        count=1,
        factor=2.0,
    )
    return FaultPlan(
        seed=1,
        requests=0 if deployment == SOAK else 4,
        steps=(step,),
        topology="" if deployment == SHARDED else "wan3",
    )


def run_on(deployment: str, plan: FaultPlan):
    if deployment == SOAK:
        return run_soak(plan)
    return run_plan(plan, shards=2 if deployment == SHARDED else 1)


@pytest.fixture
def no_clusters(monkeypatch):
    """Rejection must come before any cluster is built, let alone before the
    simulator advances: make building one a test failure."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a cluster was built for an unsupported plan")

    monkeypatch.setattr(explore_runner, "recording_cluster", forbidden)
    monkeypatch.setattr(interpreter, "sharded_recording_cluster", forbidden)
    monkeypatch.setattr(soak_runner, "recording_cluster", forbidden)


@pytest.mark.parametrize("deployment", [SINGLE, SHARDED, SOAK])
@pytest.mark.parametrize("kind", sorted(MATRIX))
def test_support_matrix(kind, deployment, no_clusters):
    plan = plan_with(kind, deployment)
    if deployment in MATRIX[kind]:
        assert unsupported_kinds([kind], deployment) == []
        check_supported(plan, deployment)
        return
    assert unsupported_kinds([kind], deployment) == [kind]
    with pytest.raises(
        ValueError, match=f"a {deployment} deployment does not support .*{kind}"
    ):
        run_on(deployment, plan)


#: One way to break each kind — a field its row says it must carry, or one
#: no step may carry — and the complaint.  A new row needs a line here.
BROKEN = {
    "crash": ({"target": ""}, "crash needs a target"),
    "restart": ({"target": "R9"}, "restart of unknown replica 'R9'"),
    "partition": ({"groups": ()}, "partition needs a groups"),
    "heal": ({"at": -1.0}, "heal at must be >= 0"),
    "drop": ({"target": ""}, "drop needs a target"),
    "recover": ({"target": "R4"}, "recover of unknown replica 'R4'"),
    "equivocate": ({"target": ""}, "equivocate needs a target"),
    "lie_checkpoint": ({"target": ""}, "lie_checkpoint needs a target"),
    "corrupt_votes": ({"target": "primary"}, "unknown replica 'primary'"),
    "corrupt_results": ({"target": ""}, "corrupt_results needs a target"),
    "fabricate_cert": ({"target": ""}, "fabricate_cert needs a target"),
    "poison_request": ({"target": ""}, "poison_request needs a target"),
    "corrupt_object": ({"index": -1}, "corrupt_object index must be >= 0"),
    "overload": ({"rate": 0.0}, "overload needs a rate"),
    "region_outage": ({"region": "mars"}, "region_outage of unknown region 'mars'"),
    "partition_storm": ({"count": 0}, "partition_storm needs a count"),
    "latency_spike": ({"factor": 1.0}, "latency_spike factor must be > 1"),
    "flash_crowd": ({"clients": 0}, "flash_crowd needs a clients"),
    "age_replicas": ({"target": "R9"}, "age_replicas of unknown replica 'R9'"),
    "destroy_group": ({"index": -1}, "destroy_group index must be >= 0"),
}


@pytest.mark.parametrize("kind", sorted(STEP_TABLE))
def test_every_run_refuses_a_malformed_step(kind, no_clusters):
    """Well-formedness is demanded by run_plan and run_soak themselves, not
    only by whoever remembered to call validate_plan first."""
    broken, complaint = BROKEN[kind]
    for deployment in sorted(MATRIX[kind]):
        plan = plan_with(kind, deployment)
        assert malformed(plan) == []
        plan = replace(plan, steps=(replace(plan.steps[0], **broken),))
        with pytest.raises(ValueError, match=f"malformed plan: .*{complaint}"):
            run_on(deployment, plan)


def test_unknown_kind_is_one_problem():
    plan = plan_with("client_swarm", SINGLE)
    assert validate_plan(plan) == ["unknown kind 'client_swarm'"]


UNPAIRED = FaultPlan(
    seed=1, requests=4, steps=(FaultStep(at=0.1, kind="crash", target="R1"),)
)


def test_a_shrunk_plan_that_lost_its_restart_still_runs():
    """ddmin keeps a ``crash`` and drops its ``restart``: well formed, outside
    the fault assumptions, and run_plan runs it (the epilogue restarts R1)."""
    assert malformed(UNPAIRED) == []
    assert outside_assumptions(UNPAIRED) == ["plan ends with ['R1'] still crashed"]
    outcome = run_plan(UNPAIRED)
    assert outcome.violation is None and outcome.completed == 4


def test_a_campaign_must_also_stay_inside_the_fault_assumptions(no_clusters):
    with pytest.raises(ValueError, match="invalid campaign plan: .*still crashed"):
        run_soak(replace(UNPAIRED, requests=0))


def test_topology_presets_need_a_single_group(no_clusters):
    with pytest.raises(ValueError, match="sharded deployment does not support .*wan3"):
        run_plan(FaultPlan(seed=1, requests=8, topology="wan3"), shards=2)


def test_region_steps_need_a_topology(no_clusters):
    plan = FaultPlan(
        seed=1,
        requests=4,
        steps=(FaultStep(at=1.0, kind="region_outage", region="us-east", duration=2.0),),
    )
    with pytest.raises(ValueError, match="requires? a plan topology"):
        run_plan(plan)


def test_unknown_plants_and_sharded_overrides_are_rejected(no_clusters):
    plan = FaultPlan(seed=1, requests=8)
    for shards in (0, -3):  # no deployment has fewer than one group
        with pytest.raises(ValueError, match=f"shards must be >= 1, not {shards}"):
            run_plan(plan, shards=shards)
    with pytest.raises(ValueError, match="planted bug"):
        run_plan(plan, plant="no-such-bug")
    with pytest.raises(ValueError, match="planted bug"):
        run_plan(plan, shards=2, plant="weak-prepare-quorum")  # a one-group plant
    with pytest.raises(ValueError, match="sharded deployment does not support .*'pipelined'"):
        run_plan(plan, shards=2, config_overrides=VARIANTS["pipelined"].overrides)
    # What the fast-path row adds, without the rungs under it, is no row.
    fast, speculation = VARIANTS["fast-path"].overrides, VARIANTS["speculation"].overrides
    with pytest.raises(ValueError, match="none of the variants"):
        run_plan(plan, config_overrides=dict(fast.items() - speculation.items()))


# -- cross-commit pins ---------------------------------------------------------------
# Captured at the parent commit (24db597) from its three hand-written
# interpreters: the one-group runner, the sharded runner (two shards) and
# run_soak.
# Each entry is (completed, events, non-zero counters) for
# generate_plan(seed, requests=12).  The ``events`` members (and only they)
# were re-recorded once since: a superseded request timer is now cancelled
# instead of firing as a no-op event (1644 -> 1596 on the first pin).
#
# The pins whose plan reboots a primary — seed 12 here and in SHARDED_PINS,
# seed 11 in DESTROY_PINS, seven of the IMPL_FAULT_PINS and the soak pin —
# were re-recorded once more, and no other: a primary about to reboot hands
# its view over first and its backups follow at once, so every such reboot
# is now four view changes started and no request timer, where it used to be
# either none (an idle group never noticed) or a 250 ms timeout.  Before:
# (12, 1961, 4 view changes), (12, 4086, 8), (12, 9562, 32), 59765 events.

SINGLE_PINS = {
    11: (12, 1596, {}),
    12: (12, 1727, {"view_changes_started": 3}),
    13: (12, 1647, {}),
}
_TXNS = {"txns_started": 4, "txns_committed": 4}
SHARDED_PINS = {
    11: (12, 3304, {**_TXNS, "txn_commits_applied": 32}),
    12: (12, 3648, {**_TXNS, "txn_commits_applied": 12, "view_changes_started": 19}),
    13: (12, 3360, {**_TXNS, "txn_commits_applied": 32}),
}
_REBUILT = {
    **_TXNS,
    "fusion_reconstructions_started": 1,
    "fusion_reconstructions_completed": 1,
    "fusion_replicas_seeded": 4,
    "fusion_updates_applied": 3,
}
# The ``events`` members of DESTROY_PINS (and only they; every counter is as
# recorded) moved once more, 9610 / 5715 / 5923 before: a block fetch is now
# answered by all four donors instead of the one whose MAC survived, the
# four replacement replicas reboot together instead of in turn behind a
# 5 ms poll, and none of them starts a root fetch it would then abandon.
DESTROY_PINS = {
    # 13 rotation reboots x 2 shards x (the primary + 3 followers) = 104.
    11: (12, 8673, {**_REBUILT, "txn_commits_applied": 12, "view_changes_started": 104}),
    12: (12, 5640, {**_REBUILT, "txn_commits_applied": 20}),
    13: (12, 5979, {**_REBUILT, "txn_commits_applied": 20}),
}


def pin(outcome):
    assert outcome.violation is None
    nonzero = {name: value for name, value in outcome.counters.items() if value}
    return (outcome.completed, outcome.events, nonzero)


@pytest.mark.parametrize("seed", sorted(SINGLE_PINS))
def test_single_group_runs_match_the_parent_commit(seed):
    assert pin(run_plan(generate_plan(seed, requests=12))) == SINGLE_PINS[seed]


@pytest.mark.parametrize("seed", sorted(SHARDED_PINS))
def test_sharded_runs_match_the_parent_commit(seed):
    assert pin(run_plan(generate_plan(seed, requests=12), shards=2)) == SHARDED_PINS[seed]


@pytest.mark.parametrize("seed", sorted(DESTROY_PINS))
def test_destruction_runs_match_the_parent_commit(seed):
    plan = generate_plan(seed, requests=12, family=DESTRUCTION)
    assert pin(run_plan(plan, shards=2)) == DESTROY_PINS[seed]


#: ``explore(budget=12, seed=5, requests=24, family=IMPLEMENTATION)``:
#: poison_request / corrupt_object plans, i.e. the supervisor's recoveries and
#: the scrubber's partial transfers under the oracles.  Recorded before the
#: scrub session became a client of the transfer session; that change must
#: not move an event.
#: Seven of the twelve run a rotation (or a ``recover`` step) that reboots a
#: primary and moved with the hand-off; before, in order: (2542, 4 view
#: changes), (2058, 4), (2476, 0), (2074, 0), (2846, 9 and 2 requests
#: relayed), (2397, 0) and (1986, 0).  The tenth run's one view change is a
#: primary rebooting while partitioned off alone: its hand-off reaches nobody,
#: it reboots in place and goes on leading, and not an event moves.


def _vc(started):
    return {"view_changes_started": started}


IMPL_FAULT_PINS = [
    (24, 2717, _vc(18)),
    (24, 2260, _vc(13)),
    (24, 2575, _vc(19)),
    (24, 2002, {}),
    (24, 2011, _vc(4)),
    (24, 1905, {}),
    (24, 2216, _vc(8)),
    (24, 2135, {}),
    (24, 2681, _vc(24)),
    (24, 2397, _vc(1)),
    (24, 1833, {}),
    (24, 2156, _vc(8)),
]


def test_implementation_fault_exploration_matches_the_parent_commit():
    result = explore(
        budget=12, seed=5, requests=24, family=IMPLEMENTATION, shrink=False
    )
    assert not result.found
    verdicts = [
        (
            outcome["completed"],
            outcome["events"],
            {name: value for name, value in outcome["counters"].items() if value},
        )
        for outcome in (verdict["outcome"] for verdict in result.verdicts)
    ]
    assert verdicts == IMPL_FAULT_PINS


def test_soak_matches_the_parent_commit_logged_or_not():
    """The parent's quiet run gave 61540 events / 256 probe ops; its logged
    run probed in different segments and gave 58840 / 240, so a logged run's
    artifact never replayed.  Logging is now a pure observer.  (59765 events
    since superseded request timers are cancelled, 59731 since a rebooting
    primary hands its view over; probe ops unchanged.)"""
    plan = generate_campaign(3, hours=0.1, storms=1, flash_crowds=1)
    quiet = run_soak(plan, slo=SoakSLO(window=60))
    assert (quiet.events, quiet.probe_ops) == (59731, 256)
    lines = []
    logged = run_soak(plan, slo=SoakSLO(window=60), log=lines.append)
    assert logged.to_dict() == quiet.to_dict()
    assert len(lines) == 6 and lines[0].startswith("t=    60.0/392")
