"""The recording point behind ``BENCH_paper.json`` (conftest ``record``)."""

import json

import pytest

from repro.bench.cli import _validate_baseline, write_report
from repro.bench.metrics import ExperimentTable

from benchmarks.conftest import record


def _tables():
    sweep = ExperimentTable("T1: sweep")
    sweep.add_row(k=4, copies=120, ratio=1.5, label="slow")
    sweep.add_row(k=8, copies=108, ratio=0.75, label="fast")
    verdict = ExperimentTable("T2: verdict")
    verdict.add_row(deployment="n-version", survived=True, speedup="2.44x", mttr=[0.1])
    return sweep, verdict


def test_recorded_tables_form_a_stable_valid_report(tmp_path):
    paths = []
    for name in ("first.json", "second.json"):
        recorded = {}
        for table in _tables():
            record(table, recorded)
        paths.append(tmp_path / name)
        write_report(paths[-1], "paper", recorded)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report = json.loads(paths[0].read_text())
    assert _validate_baseline(report) is None
    # Numbers as printed, keyed by first cell and column; booleans as 0/1;
    # labels, "2.44x" and lists are not numbers and stay out.
    assert report["scenarios"] == {
        "T1: sweep": {
            "4.k": 4, "4.copies": 120, "4.ratio": 1.5,
            "8.k": 8, "8.copies": 108, "8.ratio": 0.75,
        },
        "T2: verdict": {"n-version.survived": 1},
    }


def test_colliding_rows_and_titles_are_refused():
    sweep, _verdict = _tables()
    sweep.add_row(k=4, copies=1, ratio=1.0, label="again")
    with pytest.raises(ValueError, match="two rows labelled '4'"):
        record(sweep, {})
    recorded = {}
    record(_tables()[0], recorded)
    with pytest.raises(ValueError, match="recorded twice"):
        record(_tables()[0], recorded)
