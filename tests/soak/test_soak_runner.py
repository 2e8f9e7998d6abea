"""Soak harness mechanics on short campaigns: determinism, artifacts,
beyond-assumption exclusion, aging under view-change churn, and the CLI."""

import json

import pytest

from repro.explore.cli import replay_main
from repro.explore.plan import FaultPlan, FaultStep
from repro.soak.cli import soak_main
from repro.soak.runner import (
    SoakSLO,
    is_soak_artifact,
    load_soak_artifact,
    run_soak,
    write_soak_artifact,
)


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


def test_short_soak_runs_clean_and_counts_campaign_work():
    report = run_soak(small_campaign(), slo=SoakSLO(window=30.0))
    assert report.ok
    assert report.safety_violations == []
    assert report.probe_ops > 0
    assert report.windows
    assert report.counters["storm_cuts"] == 2
    assert report.counters["flash_crowds"] == 1
    assert report.counters["messages_dropped_cut"] > 0
    assert report.swarm_offered > 0
    assert report.horizon == 110.0  # max step end (50) + 60s tail


def test_soak_is_deterministic():
    a = run_soak(small_campaign(), slo=SoakSLO(window=30.0))
    b = run_soak(small_campaign(), slo=SoakSLO(window=30.0))
    assert a.to_dict() == b.to_dict()


def test_invalid_plan_rejected():
    plan = FaultPlan(
        seed=1,
        requests=0,
        steps=(FaultStep(at=1.0, kind="partition_storm", count=2, duration=5.0),),
    )
    with pytest.raises(ValueError):
        run_soak(plan)


def test_artifact_round_trip_and_replay_equality(tmp_path):
    path = tmp_path / "soak.json"
    plan = small_campaign()
    slo = SoakSLO(window=30.0)
    report = run_soak(plan, slo=slo)
    write_soak_artifact(path, plan, slo, report)

    data = json.loads(path.read_text())
    assert is_soak_artifact(data)
    loaded_plan, loaded_slo, recorded = load_soak_artifact(path)
    assert loaded_plan == plan
    assert loaded_slo == slo
    assert recorded["ok"] is True

    # Replaying from the decoded artifact reproduces the run exactly.
    replayed = run_soak(loaded_plan, slo=loaded_slo)
    assert replayed.to_dict() == report.to_dict()


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


def test_soak_cli_writes_replayable_artifact(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = soak_main(
        ["--seed", "9", "--hours", "0.02", "--out", str(out), "--quiet"]
    )
    assert code == 0
    assert capsys.readouterr().out.count("SLO held") == 1
    plan, slo, recorded = load_soak_artifact(out)
    assert plan.topology == "wan3"
    assert recorded["ok"] is True

    # `repro replay` understands the soak format and re-executes it.
    code = replay_main([str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "reproduces the recorded soak run exactly" in captured.out


def test_logged_soak_cli_run_replays_exactly_and_a_mismatch_fails(tmp_path, capsys):
    """Without --quiet the run logs progress; logging must not change the
    run, so its artifact replays exactly.  A replay that does not reproduce
    the recording exits 1 even though its own SLO held."""
    out = tmp_path / "report.json"
    argv = ["--seed", "9", "--hours", "0.02", "--window", "30", "--out", str(out)]
    assert soak_main(argv) == 0
    assert "t=" in capsys.readouterr().out  # progress lines were printed
    assert replay_main([str(out)]) == 0
    assert "reproduces the recorded soak run exactly" in capsys.readouterr().out

    data = json.loads(out.read_text())
    data["report"]["events"] += 1
    out.write_text(json.dumps(data))
    assert replay_main([str(out)]) == 1
    assert "WARNING - soak verdict differs" in capsys.readouterr().out


def test_soak_cli_rejects_bad_usage(capsys):
    assert soak_main(["--hours", "0"]) == 2
    capsys.readouterr()
    # Each of these used to run: no window judged ("SLO held"), a floor no
    # window can meet, or the rotation silently off.
    for flags in (["--window", "0"], ["--window", "-60"], ["--max-outage", "-1"],
                  ["--availability-floor", "1.5"], ["--recovery-period", "-5"]):
        assert soak_main(["--hours", "0.1"] + flags) == 2, flags
        assert capsys.readouterr().err.startswith("soak: ")
