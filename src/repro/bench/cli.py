"""``repro bench`` — deterministic benchmark suites from the command line.

Runs a named suite of simulator scenarios (:mod:`repro.bench.suites`), writes
machine-readable ``BENCH_<suite>.json``, and optionally compares against a
committed baseline with a regression threshold.

Exit codes: 0 = ok, 1 = regression against the baseline, 2 = usage error.

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

#: Metrics compared against a baseline, with the direction that counts as a
#: regression.  Anything not listed is informational only.
LOWER_IS_BETTER = {
    "virtual_seconds",
    "latency_p50_ms",
    "latency_p99_ms",
    "messages_sent",
    "bytes_sent",
    "message_encodes",
    "message_encode_bytes",
    "encodes_per_send",
    "mac_generate",
    "mac_verify",
    "key_derivations",
    "digests",
    "digest_combines",
    "checkpoint_digests",
    "cow_copies",
    "cow_bytes",
    "tree_nodes_copied",
    "tree_nodes_copied_per_checkpoint",
    "copy_scaling_ratio",
    "objects_fetched",
    "fetch_meta_sent",
    "fetch_object_sent",
    "view_changes_started",
    "read_only_fallbacks",
    "storage_ratio",
    "fused_storage_bytes",
    "reconstruction_vseconds",
    "block_bytes_fetched",
}
HIGHER_IS_BETTER = {
    "ops_per_vsec",
    "transfers_completed",
    "goodput_per_vsec",
    "completed",
    "executed",
    "txns_committed",
    "availability",
    "min_window_availability",
    "probe_ops",
    "root_match",
    "resumed",
    "replicas_seeded",
}


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
        help="baseline BENCH_*.json to compare against; regressions exit 1",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="allowed fractional regression vs the baseline (default 0.05)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _compare_metric(name: str, current: float, baseline: float) -> Optional[float]:
    """Fractional regression of ``current`` vs ``baseline`` (None if the
    metric is informational or did not regress)."""
    if name in LOWER_IS_BETTER:
        if current <= baseline:
            return None
        return (current - baseline) / baseline if baseline else float("inf")
    if name in HIGHER_IS_BETTER:
        if current >= baseline:
            return None
        return (baseline - current) / baseline if baseline else float("inf")
    return None


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


def compare_reports(current: Dict, baseline: Dict, threshold: float) -> List[Tuple[str, str]]:
    """Regressions against ``baseline``, as (``scenario[.metric]``, what
    happened) pairs: a compared metric worse by more than ``threshold``, or a
    baselined scenario or metric this run did not produce — renaming or
    deleting one must not silently take it out from under the gate."""
    regressions: List[Tuple[str, str]] = []
    for scenario, base_metrics in baseline.get("scenarios", {}).items():
        current_metrics = current.get("scenarios", {}).get(scenario)
        if current_metrics is None:
            regressions.append((scenario, "missing from this run"))
            continue
        for metric, base_value in base_metrics.items():
            if metric not in current_metrics:
                regressions.append((f"{scenario}.{metric}", "missing from this run"))
                continue
            value = current_metrics[metric]
            frac = _compare_metric(metric, value, base_value)
            if frac is not None and frac > threshold:
                regressions.append(
                    (f"{scenario}.{metric}", f"{value} vs baseline {base_value} ({frac:+.1%})")
                )
    return regressions


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
    if args.threshold < 0:
        print("bench: --threshold must be >= 0", file=sys.stderr)
        return EXIT_USAGE

    baseline = None
    if args.compare is not None:
        baseline_path = Path(args.compare)
        if not baseline_path.is_file():
            print(f"bench: no such baseline: {baseline_path}", file=sys.stderr)
            return EXIT_USAGE
        try:
            baseline = json.loads(baseline_path.read_text())
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
    regressions = compare_reports(report, baseline, args.threshold)
    if not regressions:
        print(
            f"bench: no regressions vs {baseline_path} "
            f"(threshold {args.threshold:.0%})"
        )
        return EXIT_OK
    for name, what in regressions:
        print(f"bench: REGRESSION {name}: {what}")
    return EXIT_REGRESSION
