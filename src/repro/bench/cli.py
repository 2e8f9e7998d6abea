"""``repro bench`` — deterministic benchmark suites from the command line.

Runs a named suite of simulator scenarios (:mod:`repro.bench.suites`), writes
machine-readable ``BENCH_<suite>.json``, and optionally compares it against a
committed baseline, exactly: the report must equal the baseline byte for byte.

Exit codes: 0 = ok, 1 = the report differs from the baseline, 2 = usage error.

The report is deliberately free of wall-clock timestamps and host identifiers:
two runs of the same code produce byte-identical JSON, so baselines can be
committed and compared exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.suites import SUITES, run_suite

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2

SCHEMA_VERSION = 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run deterministic benchmark suites under the simulator.",
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="smoke",
        help="suite to run (default smoke)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list every suite's scenarios (one per line) and exit",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="report path (default BENCH_<suite>.json in the working directory)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline BENCH_*.json the report must equal byte for byte; "
        "any difference exits 1",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _validate_baseline(baseline) -> Optional[str]:
    """Shape check for a parsed baseline: valid JSON is not enough — a
    truncated or hand-mangled file must die with a one-line error, not a
    traceback from deep inside the comparison."""
    if not isinstance(baseline, dict):
        return f"expected a JSON object, got {type(baseline).__name__}"
    scenarios = baseline.get("scenarios", {})
    if not isinstance(scenarios, dict):
        return f"'scenarios' must be an object, got {type(scenarios).__name__}"
    for scenario, metrics in scenarios.items():
        if not isinstance(metrics, dict):
            return (
                f"scenario {scenario!r} must map metrics to numbers, got "
                f"{type(metrics).__name__}"
            )
        for metric, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return (
                    f"metric {scenario}.{metric} must be a number, got "
                    f"{type(value).__name__}"
                )
    return None


def compare_reports(current: Dict, baseline: Dict) -> List[Tuple[str, str]]:
    """Every difference from ``baseline``, as (``scenario[.metric]``, what)
    pairs sorted by name: a value that moved in either direction, or a
    scenario or metric present on one side only.  The baselines pin protocol
    work exactly, so an improvement must be re-recorded as much as a
    regression must be explained, and renaming or deleting an entry must not
    silently take it out from under the gate."""
    differences: List[Tuple[str, str]] = []

    def walk(prefix: str, ours: Dict, theirs: Dict) -> None:
        for key in sorted(set(ours) | set(theirs)):
            name = f"{prefix}{key}"
            if key not in ours:
                differences.append((name, "missing from this run"))
            elif key not in theirs:
                differences.append((name, "not in the baseline"))
            elif isinstance(ours[key], dict):
                walk(f"{name}.", ours[key], theirs[key])
            elif ours[key] != theirs[key]:
                differences.append((name, f"{ours[key]} vs baseline {theirs[key]}"))

    walk("", current.get("scenarios", {}), baseline.get("scenarios", {}))
    return differences


def write_report(path: Path, suite: str, scenarios: Dict[str, Dict[str, float]]) -> Dict:
    """Write ``scenarios`` as a ``BENCH_<suite>.json`` report and return it.
    Sorted keys, no timestamp, no host name: the same numbers give the same
    bytes, so a committed report can be compared exactly."""
    report = {"schema": SCHEMA_VERSION, "suite": suite, "scenarios": scenarios}
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def bench_main(argv: List[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.list:
        for suite in sorted(SUITES):
            for name in SUITES[suite]:
                print(f"{suite}: {name}")
        return EXIT_OK

    baseline = None
    if args.compare is not None:
        baseline_path = Path(args.compare)
        if not baseline_path.is_file():
            print(f"bench: no such baseline: {baseline_path}", file=sys.stderr)
            return EXIT_USAGE
        try:
            baseline_bytes = baseline_path.read_bytes()
            baseline = json.loads(baseline_bytes)
        except OSError as exc:
            print(f"bench: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"bench: malformed baseline: {exc}", file=sys.stderr)
            return EXIT_USAGE
        problem = _validate_baseline(baseline)
        if problem is not None:
            print(
                f"bench: malformed baseline {baseline_path}: {problem}",
                file=sys.stderr,
            )
            return EXIT_USAGE

    log = None if args.quiet else print
    results = run_suite(args.suite, log=log)
    out_path = Path(args.out) if args.out else Path(f"BENCH_{args.suite}.json")
    report = write_report(out_path, args.suite, results)
    print(f"bench: wrote {out_path} ({len(results)} scenarios)")

    if baseline is None:
        return EXIT_OK
    if out_path.read_bytes() == baseline_bytes:
        print(f"bench: {out_path} equals {baseline_path} byte for byte")
        return EXIT_OK
    # The same numbers in other bytes (a hand-formatted baseline, a schema or
    # suite field) still fail: the gate is byte equality.
    differences = compare_reports(report, baseline) or [
        (str(baseline_path), "same metrics, different bytes")
    ]
    for name, what in differences:
        print(f"bench: REGRESSION {name}: {what}")
    return EXIT_REGRESSION
