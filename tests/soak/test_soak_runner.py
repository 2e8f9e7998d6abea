"""Soak harness mechanics on short campaigns: determinism, artifacts,
beyond-assumption exclusion, aging under view-change churn, shrinking an SLO
violation, and the CLI."""

import io
import json
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from repro.explore.cli import replay_main
from repro.explore.plan import FaultPlan, FaultStep
from repro.explore.runner import run_plan
from repro.explore.shrink import load_artifact, shrink_plan, write_artifact
from repro.soak.cli import soak_main
from repro.soak.runner import CHECK_INTERVAL, SoakReport, SoakSLO, run_soak


def small_campaign(recovery_period=0.0):
    return FaultPlan(
        seed=21,
        requests=0,
        topology="wan3",
        recovery_period=recovery_period,
        steps=(
            FaultStep(at=10.0, kind="partition_storm", count=2, duration=30.0),
            FaultStep(at=20.0, kind="flash_crowd", rate=8.0, clients=2, duration=30.0),
        ),
    )


#: The small campaign's run, as ``repro soak`` makes it; the tests below that
#: read this run share it.
SMALL = {"check_interval": CHECK_INTERVAL, "slo": SoakSLO(window=30.0)}


@pytest.fixture(scope="module")
def small_run():
    return run_plan(small_campaign(), **SMALL)


def test_short_soak_runs_clean_and_counts_campaign_work(small_run):
    report = SoakReport.of(small_run)
    assert report.ok
    assert report.safety_violations == []
    assert report.probe_ops > 0
    assert report.windows
    assert report.counters["storm_cuts"] == 2
    assert report.counters["flash_crowds"] == 1
    assert report.counters["messages_dropped_cut"] > 0
    assert report.swarm_offered > 0
    assert report.horizon == 110.0  # max step end (50) + 60s tail


def test_soak_is_deterministic(small_run):
    """A second run, through run_soak, reports the first one exactly."""
    again = run_soak(small_campaign(), slo=SoakSLO(window=30.0))
    assert again.to_dict() == SoakReport.of(small_run).to_dict()


def test_invalid_plan_rejected():
    plan = FaultPlan(
        seed=1,
        requests=0,
        steps=(FaultStep(at=1.0, kind="partition_storm", count=2, duration=5.0),),
    )
    with pytest.raises(ValueError):
        run_soak(plan)


def test_artifact_round_trip_and_replay_equality(small_run, tmp_path):
    path = tmp_path / "soak.json"
    plan = small_campaign()
    options = dict(SMALL, op_timeout=8.0, gap=1.0)  # the probe's, recorded
    write_artifact(path, plan, small_run.violation, outcome=small_run.to_dict(), **options)

    # One artifact format: the soak run's options and its whole verdict.
    loaded_plan, recorded, plant, loaded = load_artifact(path)
    assert loaded_plan == plan
    assert loaded == dict(options, shards=1, config_overrides=None)
    assert recorded is None and plant is None
    assert SoakReport.of(small_run).ok
    assert json.loads(path.read_text())["outcome"] == small_run.to_dict()

    # Replaying from the decoded artifact reproduces the run exactly.
    replayed = run_plan(loaded_plan, **loaded)
    assert replayed.to_dict() == small_run.to_dict()


def test_beyond_assumption_outage_is_excluded_from_slo():
    """A whole-region outage of us-east (2 > f replicas) stalls the service
    far past any availability floor — but its declared window is excluded,
    so the SLO holds; the safety oracles judged the whole run regardless."""
    plan = FaultPlan(
        seed=5,
        requests=0,
        topology="wan3",
        steps=(
            FaultStep(at=40.0, kind="region_outage", region="us-east", duration=50.0),
        ),
    )
    slo = SoakSLO(window=30.0, max_outage_span=20.0)
    report = run_soak(plan, slo=slo)
    assert report.excluded_windows == [(40.0, 120.0)]  # duration + 30s margin
    assert report.safety_violations == []
    assert report.slo_violations == []
    # The probe really did see the outage; only the exclusion saved the SLO.
    assert report.counters["region_outages"] == 1
    assert any(end - start > 20.0 for start, end in report.outage_spans)


def test_within_assumption_outage_is_judged():
    """Losing eu-west (1 replica = f) keeps quorum: no liveness exemption is
    declared and the SLO must hold on its own."""
    plan = FaultPlan(
        seed=5,
        requests=0,
        topology="wan3",
        steps=(
            FaultStep(at=40.0, kind="region_outage", region="eu-west", duration=50.0),
        ),
    )
    report = run_soak(plan, slo=SoakSLO(window=30.0))
    assert report.excluded_windows == []
    assert report.ok


def test_aging_under_view_change_churn_stays_safe():
    """Regression: fragmentation stalls past the view-change timeout drive
    hundreds of view changes; certificates completed while a view change is
    in flight must not let a new view re-propose a committed seqno (the
    prepare/commit freeze in Replica.on_prepare/on_commit)."""
    plan = FaultPlan(
        seed=42,
        requests=0,
        topology="wan3",
        recovery_period=0.0,
        steps=(
            FaultStep(at=5.0, kind="age_replicas", duration=900.0, fraction=2e-3),
        ),
    )
    report = run_soak(plan, slo=SoakSLO())
    assert report.safety_violations == []
    assert report.counters["view_changes_started"] > 100  # churn really happened
    assert report.counters["aging_stalls"] > 0


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One logged ``repro soak`` run (no --quiet): its exit code, what it
    printed, and its artifact."""
    out = tmp_path_factory.mktemp("soak-cli") / "report.json"
    printed = io.StringIO()
    with redirect_stdout(printed):
        code = soak_main(["--seed", "9", "--hours", "0.02", "--window", "30", "--out", str(out)])
    return code, printed.getvalue(), out


def test_soak_cli_writes_replayable_artifact(cli_run):
    """The artifact is an explore artifact with the run's whole verdict (the
    next test replays it)."""
    code, printed, out = cli_run
    assert code == 0
    assert printed.count("SLO held") == 1
    plan, recorded, _plant, options = load_artifact(out)
    assert plan.topology == "wan3"
    assert options["slo"] == SoakSLO(window=30.0)
    assert recorded is None  # the run held: no violation
    assert json.loads(out.read_text())["outcome"]["violation"] is None


def test_logged_soak_cli_run_replays_exactly_and_a_mismatch_fails(cli_run, tmp_path, capsys):
    """Without --quiet the run logs progress; logging must not change the
    run, so its artifact replays (quietly) exactly.  A replay that does not
    reproduce the recording exits 1 even though its own SLO held."""
    _code, printed, out = cli_run
    assert "t=" in printed  # progress lines were printed
    assert replay_main([str(out)]) == 0
    assert "reproduces the recorded soak run exactly" in capsys.readouterr().out

    data = json.loads(out.read_text())
    data["outcome"]["events"] += 1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    assert replay_main([str(edited)]) == 1
    assert "WARNING - soak verdict differs" in capsys.readouterr().out


def test_an_slo_violation_shrinks_and_replays(tmp_path, capsys):
    """Under a tight SLO (every probe op must succeed) a short campaign fails
    the ``availability`` row.  It shrinks as ``repro soak`` shrinks one (CI's
    soak-smoke job runs that end to end), to fewer steps with the same
    oracle, and the shrunk plan's artifact replays to its recorded verdict."""
    tight = SoakSLO(window=30.0, availability_floor=1.0, max_outage_span=0.0)
    options = {"check_interval": CHECK_INTERVAL, "slo": tight}
    plan = replace(small_campaign(), seed=13, steps=(
        FaultStep(at=10.0, kind="partition_storm", count=3, duration=40.0),
        FaultStep(at=20.0, kind="flash_crowd", rate=8.0, clients=2, duration=30.0),
    ))
    found = run_plan(plan, **options).violation
    assert found.oracle == "availability"
    shrunk = shrink_plan(plan, found, lambda p: run_plan(p, **options).violation)
    assert len(shrunk.plan.steps) < len(plan.steps)
    assert shrunk.violation.oracle == "availability"
    outcome = run_plan(shrunk.plan, **options)
    report = SoakReport.of(outcome)
    assert report.slo_violations == [shrunk.violation.to_dict()] and not report.safety_violations

    out = tmp_path / "violation.json"
    write_artifact(
        out, shrunk.plan, shrunk.violation, original_plan=plan, outcome=outcome.to_dict(), **options
    )
    assert replay_main([str(out)]) == 1
    captured = capsys.readouterr().out
    assert "VIOLATION [availability]" in captured
    assert "reproduces the recorded soak run exactly" in captured


def test_soak_cli_rejects_bad_usage(capsys):
    assert soak_main(["--hours", "0"]) == 2
    capsys.readouterr()
    # Each of these used to run: no window judged ("SLO held"), a floor no
    # window can meet, or the rotation silently off.
    for flags in (["--window", "0"], ["--window", "-60"], ["--max-outage", "-1"],
                  ["--availability-floor", "1.5"], ["--recovery-period", "-5"]):
        assert soak_main(["--hours", "0.1"] + flags) == 2, flags
        assert capsys.readouterr().err.startswith("soak: ")
