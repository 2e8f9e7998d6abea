"""The ``repro bench`` CLI: report shape, determinism contract, comparison."""

import json
from pathlib import Path

from repro.bench.cli import (
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_USAGE,
    bench_main,
    compare_reports,
)
from repro.bench.suites import SCENARIOS, SUITES

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def test_suites_reference_registered_scenarios():
    assert "smoke" in SUITES
    for suite in SUITES.values():
        for name in suite:
            assert name in SCENARIOS


def test_every_suite_has_a_committed_baseline_with_its_scenarios():
    """A suite nobody gates is a suite nobody runs: each one is pinned by a
    ``BENCH_<suite>.json`` holding exactly the suite's scenarios."""
    for suite, names in SUITES.items():
        baseline = json.loads((BASELINES / f"BENCH_{suite}.json").read_text())
        assert baseline["suite"] == suite
        assert set(baseline["scenarios"]) == set(names), suite


def _report(**metrics):
    return {"schema": 1, "suite": "smoke", "scenarios": {"s": metrics}}


def test_compare_flags_cost_increase():
    regressions = compare_reports(_report(messages_sent=120), _report(messages_sent=100))
    assert [name for name, _what in regressions] == ["s.messages_sent"]


def test_compare_flags_throughput_drop():
    regressions = compare_reports(_report(ops_per_vsec=80.0), _report(ops_per_vsec=100.0))
    assert [name for name, _what in regressions] == ["s.ops_per_vsec"]


def test_compare_names_every_moved_metric_in_either_direction():
    """The gate is exact: a safety count, a checkpoint metric no direction
    was ever declared for, and an "improvement" are each a difference from
    the pinned baseline, named with both values."""
    current = _report(safety_violations=1, small_cow_bytes=4160, messages_sent=90, ops=7)
    baseline = _report(safety_violations=0, small_cow_bytes=4096, messages_sent=100, ops=7)
    assert compare_reports(current, baseline) == [
        ("s.messages_sent", "90 vs baseline 100"),
        ("s.safety_violations", "1 vs baseline 0"),
        ("s.small_cow_bytes", "4160 vs baseline 4096"),
    ]
    assert compare_reports(baseline, baseline) == []


def test_compare_flags_scenarios_and_metrics_missing_from_current():
    """Renaming or deleting a baselined scenario or metric must not silently
    take it out from under the gate — even an informational metric."""
    baseline = {"scenarios": {"gone": {"messages_sent": 1}, "s": {"ops": 1, "bytes_sent": 2}}}
    current = {"scenarios": {"s": {"bytes_sent": 2}, "new": {"ops": 5}}}
    assert compare_reports(current, baseline) == [
        ("gone", "missing from this run"),
        ("new", "not in the baseline"),
        ("s.ops", "missing from this run"),
    ]


def test_usage_errors():
    assert bench_main(["--suite", "nonsense"]) == EXIT_USAGE


def test_list_prints_every_scenario_without_running_any(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert bench_main(["--list"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    expected = [
        f"{suite}: {name}" for suite in sorted(SUITES) for name in SUITES[suite]
    ]
    assert lines == expected
    # Listing is a pure query: no report file is written.
    assert list(tmp_path.iterdir()) == []


def test_compare_against_missing_baseline_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # The suite must not run before argument validation catches the baseline.
    assert (
        bench_main(["--compare", str(tmp_path / "nope.json"), "--quiet"]) == EXIT_USAGE
    )


def test_compare_against_corrupt_baseline_is_usage_error(tmp_path, monkeypatch, capsys):
    """Corrupt or mis-shaped baselines must die with a one-line error and
    exit 2 — never a traceback — and always before the suite runs."""
    monkeypatch.chdir(tmp_path)
    cases = [
        ("truncated.json", '{"scenarios": {"kv"'),  # invalid JSON
        ("list.json", "[1, 2, 3]"),  # valid JSON, wrong top-level type
        ("scalar.json", '"BENCH"'),  # valid JSON, scalar
        ("bad-scenarios.json", '{"scenarios": [1]}'),  # scenarios not an object
        ("bad-metrics.json", '{"scenarios": {"kv": 7}}'),  # metrics not an object
        (
            "bad-value.json",
            '{"scenarios": {"kv": {"ops_per_vsec": "fast"}}}',
        ),  # metric value not a number
    ]
    for name, content in cases:
        baseline = tmp_path / name
        baseline.write_text(content)
        assert bench_main(["--compare", str(baseline), "--quiet"]) == EXIT_USAGE, name
        err = capsys.readouterr().err
        assert err.startswith("bench:"), (name, err)
        assert "Traceback" not in err, name


def test_smoke_suite_end_to_end(tmp_path, capsys):
    """Full CLI round trip: run, self-compare (exit 0), deterministic re-run,
    then a doctored baseline: one worse metric and one scenario this run does
    not have, each a regression line, exit 1."""
    out = tmp_path / "BENCH_smoke.json"
    assert bench_main(["--suite", "smoke", "--out", str(out), "--quiet"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["suite"] == "smoke"
    assert set(report["scenarios"]) == set(SUITES["smoke"])

    assert (
        bench_main(
            ["--suite", "smoke", "--out", str(tmp_path / "again.json"),
             "--compare", str(out), "--quiet"]
        )
        == EXIT_OK
    )
    assert (tmp_path / "again.json").read_bytes() == out.read_bytes()

    doctored = json.loads(out.read_text())
    doctored["scenarios"]["kv_throughput"]["messages_sent"] = 1
    doctored["scenarios"]["renamed_away"] = {"ops": 1}
    baseline = tmp_path / "doctored.json"
    baseline.write_text(json.dumps(doctored))
    assert (
        bench_main(
            ["--suite", "smoke", "--out", str(tmp_path / "third.json"),
             "--compare", str(baseline), "--quiet"]
        )
        == EXIT_REGRESSION
    )
    lines = [l for l in capsys.readouterr().out.splitlines() if "REGRESSION" in l]
    assert len(lines) == 2
    assert lines[0].startswith("bench: REGRESSION kv_throughput.messages_sent: ")
    assert lines[1] == "bench: REGRESSION renamed_away: missing from this run"


def test_the_gate_is_byte_equality(tmp_path, monkeypatch, capsys):
    """A baseline holding the same numbers in other bytes still fails: the
    report must equal the baseline exactly, as CI's ``cmp`` once checked."""
    monkeypatch.setattr(
        "repro.bench.cli.run_suite", lambda suite, log=None: {"s": {"ops": 1}}
    )
    out = tmp_path / "BENCH_smoke.json"
    assert bench_main(["--out", str(out), "--quiet"]) == EXIT_OK
    assert bench_main(["--out", str(out), "--compare", str(out), "--quiet"]) == EXIT_OK
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(out.read_text())))
    capsys.readouterr()
    assert (
        bench_main(["--out", str(out), "--compare", str(compact), "--quiet"])
        == EXIT_REGRESSION
    )
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"bench: REGRESSION {compact}: same metrics, different bytes"
    )
