#!/usr/bin/env python3
"""Compare two benchmark results under the bounds in BENCHMARK.json.

    python3 perf/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both are files
written by ``perf/run.py`` without ``--workload``.  One row per workload and
end-to-end metric: ``better`` / ``same`` / ``worse`` by the metric's bound,
or ``unresolved`` when a host-clock rate was measured with repetitions that
spread wider than the bound on either side.  Every ratio is printed with its
base.  Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Metrics read off the host clock inside the timed region, for which the
#: spread between one run's repetitions says whether the number is usable.
HOST_TIMED = ("ops_per_s",)


def verdict(base: float, new: float, better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse``: did ``new`` move past the bound?"""
    change = (new - base) / base if base else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(
    base: Dict, new: Dict, metrics: List[Dict]
) -> List[Tuple[str, str, float, float, str]]:
    """Rows ``(workload, metric, base value, new value, verdict)``."""
    rows = []
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        a, b = base["workloads"][workload], new["workloads"][workload]
        for spec in metrics:
            name = spec["name"]
            before = a["end_to_end"][name]["value"]
            after = b["end_to_end"][name]["value"]
            outcome = verdict(before, after, spec["better"], spec["bound"])
            if name in HOST_TIMED and max(a["rep_spread"], b["rep_spread"]) > spec["bound"]:
                outcome = "unresolved"
            rows.append((workload, name, before, after, outcome))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in args)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in metrics}
    rows = compare(base, new, metrics)
    for workload, name, before, after, outcome in rows:
        ratio = after / before if before else float("nan")
        print(
            f"{workload:11s} {name:16s} {after:12.6g} / {before:12.6g} {units[name]:5s}"
            f" = {ratio:7.4f} of base  {outcome}"
        )
    counts = {o: sum(1 for row in rows if row[4] == o) for o in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{count} {outcome}" for outcome, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
