#!/usr/bin/env python3
"""Run the host-time benchmark.

    python3 perf/run.py --workload kv_write --seed 1 --seconds 12 --trace 0

runs one workload in this process and prints, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
repetition with ``--trace 1`` (BENCHMARK.json is the contract).  Without
``--workload`` it runs all five, each in its own fresh subprocess and never
two at once, and writes ``perf/out/result.json`` for ``perf/compare.py``.

Exit code 0 means every output check passed; 1 means one failed; 2 means
the benchmark could not run (for instance no ``src/`` beside ``perf/``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed host seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the detailed result here")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (perf/test_perf.py)")
    return parser.parse_args(argv)


def _show(result) -> None:
    name = result["workload"]
    virtual = result["virtual"]
    print(
        f"{name}: seed {result['seed']}, {virtual['ops']} ops in "
        f"{virtual['virtual_seconds']:.3f} vs; latency p50 {virtual['latency_p50_vms']:.6g} vms, "
        f"p99 {virtual['latency_p99_vms']:.6g} vms ({virtual['latency_samples']} samples), "
        f"longest stall {virtual['max_stall_vms']:.6g} vms"
    )
    print(
        f"{name}: repetitions {', '.join(f'{s:.2f}s' for s in result['host_s'])} "
        f"(spread {result['rep_spread']:.3f}), machine slowdown "
        f"{result['calibration']['slowdown']:.3f} "
        f"(uncorrected {result['ops_per_s_uncorrected']:.6g} ops/s)"
    )
    if result["unresolved"]:
        print(f"{name}: UNRESOLVED — host numbers not reportable at this spread")
    for group in ("end_to_end", "per_layer"):
        for metric, entry in result.get(group, {}).items():
            print(f"  {name}.{metric} = {entry['value']:.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"{name}: CHECK FAILED: {problem}")


def _write(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    started = time.perf_counter()
    from perf import measure, workloads

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"perf/run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    benchmark = _benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    sizes = workloads.TINY_SIZES[args.workload] if args.tiny else None
    result = measure.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), import_s=import_s, sizes=sizes
    )
    trace = result.pop("trace", None)
    if trace is not None:
        trace["per_layer"] = result["per_layer"]
        _write(OUT / f"trace_{args.workload}.json", trace)
    if args.out:
        _write(Path(args.out), result)
    _show(result)
    # The last line carries exactly the metrics BENCHMARK.json names; the
    # harness measures a few more (printed above, kept in the detailed result).
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {spec["name"]: result[group][spec["name"]] for spec in benchmark[group]}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args) -> int:
    """Every workload, one after another, each in a fresh interpreter."""
    status = 0
    results = {}
    for spec in _benchmark()["workloads"]:
        name = spec["name"]
        detail = OUT / f"{name}.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--trace", str(args.trace), "--out", str(detail)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.tiny:
            command.append("--tiny")
        code = subprocess.run(command, check=False).returncode
        if code == 2:
            return 2
        status = max(status, code)
        results[name] = json.loads(detail.read_text())
    _write(Path(args.out) if args.out else OUT / "result.json", {"seed": args.seed, "workloads": results})
    return status


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
