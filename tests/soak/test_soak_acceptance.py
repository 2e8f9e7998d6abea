"""The PR's acceptance contrast: one seeded 2-virtual-hour geo campaign on
``wan3`` (partition storms, a flash crowd, a beyond-assumption region outage,
fragmentation aging), run twice — proactive rotation ON then OFF — and both
artifacts replayed exactly through ``repro replay``.

Rotation ON must hold every safety oracle *and* the windowed availability
SLO; the identical fault timeline with rotation OFF must violate the SLO
(fragmentation accumulates unchecked) while safety still holds — the BASE
argument that proactive recovery buys availability, never correctness.
"""

import pytest

from repro.explore.cli import replay_main
from repro.explore.runner import run_plan
from repro.explore.shrink import write_artifact
from repro.soak.campaign import generate_campaign
from repro.soak.runner import CHECK_INTERVAL, SoakReport, SoakSLO

SEED = 7
HOURS = 2.0
SLO = SoakSLO()  # 300s windows, 0.99 floor, 90s outage bound, 30s margin


def campaign(watchdog):
    return generate_campaign(
        SEED,
        topology="wan3",
        hours=HOURS,
        watchdog=watchdog,
        storms=2,
        flash_crowds=1,
        crowd_clients=3,
    )


@pytest.fixture(scope="module")
def contrast(tmp_path_factory):
    """Run the ON and OFF campaigns once for the whole module, each through
    run_plan as ``repro soak`` does, and write each one's whole verdict."""
    directory = tmp_path_factory.mktemp("soak-acceptance")
    runs = {}
    options = {"check_interval": CHECK_INTERVAL, "slo": SLO}
    for watchdog in (True, False):
        plan = campaign(watchdog)
        outcome = run_plan(plan, **options)
        path = directory / f"soak-{'on' if watchdog else 'off'}.json"
        write_artifact(path, plan, outcome.violation, outcome=outcome.to_dict(), **options)
        runs[watchdog] = (plan, SoakReport.of(outcome), path)
    return runs


def test_identical_fault_timeline(contrast):
    plan_on, _, _ = contrast[True]
    plan_off, _, _ = contrast[False]
    assert plan_on.steps == plan_off.steps
    assert plan_on.seed == plan_off.seed
    assert plan_on.recovery_period > 0.0 and plan_off.recovery_period == 0.0
    assert HOURS * 3600.0 >= 7200.0  # the campaign really spans >= 2 virtual hours


def test_watchdog_on_meets_the_slo(contrast):
    plan, report, _ = contrast[True]
    assert report.safety_violations == []
    assert report.slo_violations == []
    assert report.ok
    # Every judged window (outside the declared beyond-assumption region
    # outage) sits at or above the floor.
    assert report.min_window_availability >= SLO.availability_floor
    assert report.excluded_windows  # the us-east outage was declared
    assert report.counters["recoveries_started"] > 0  # rotation really ran
    assert report.counters["aging_stalls"] > 0  # aging really bit
    assert report.mttr["recoveries"] > 0


def test_watchdog_off_violates_availability_but_never_safety(contrast):
    _, report, _ = contrast[False]
    assert report.safety_violations == []
    assert report.slo_violations  # fragmentation dragged windows under floor
    assert not report.ok
    assert report.min_window_availability < SLO.availability_floor
    assert report.counters["recoveries_started"] == 0
    # Unchecked aging shows up as view-change churn, damped or not.
    assert (
        report.counters["view_changes_started"]
        > contrast[True][1].counters["view_changes_started"]
    )


def test_replay_reproduces_the_rotation_run_exactly(contrast, capsys):
    _, _, path = contrast[True]
    assert replay_main([str(path)]) == 0
    assert "reproduces the recorded soak run exactly" in capsys.readouterr().out


def test_replay_reproduces_the_violation_run_exactly(contrast, capsys):
    _, _, path = contrast[False]
    assert replay_main([str(path)]) == 1
    assert "reproduces the recorded soak run exactly" in capsys.readouterr().out
