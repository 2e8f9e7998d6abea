"""``repro soak`` — run a seeded long-horizon campaign from the command line.

The campaign runs through ``run_plan`` on the ``soak`` deployment row, and
a violation (of the ``availability`` row or a safety oracle) shrinks the way
``repro explore``'s does.  Exit codes: 0 = every oracle held, 1 = a violation
(the artifact is written either way — the run's whole verdict, or the shrunk
plan's — so any verdict can be replayed), 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.explore.runner import run_plan
from repro.explore.shrink import shrink_plan, write_artifact
from repro.net.topology import PRESETS
from repro.soak.campaign import generate_campaign
from repro.soak.runner import CHECK_INTERVAL, SoakSLO

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_ARTIFACT = "soak-report.json"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro soak",
        description=(
            "Run a seeded geo-scale fault campaign over virtual hours and "
            "judge it against a windowed availability SLO."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument(
        "--topology",
        choices=sorted(PRESETS),
        default="wan3",
        help="topology preset (default wan3)",
    )
    parser.add_argument(
        "--hours", type=float, default=2.0, help="virtual hours (default 2.0)"
    )
    parser.add_argument(
        "--no-watchdog",
        action="store_true",
        help="disable proactive rotation (the contrast run: fragmentation "
        "aging then accumulates unchecked)",
    )
    parser.add_argument(
        "--recovery-period",
        type=float,
        default=600.0,
        help="proactive rotation period in virtual seconds (default 600)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=300.0,
        help="SLO accounting window in virtual seconds (default 300)",
    )
    parser.add_argument(
        "--availability-floor",
        type=float,
        default=0.99,
        help="minimum per-window availability (default 0.99)",
    )
    parser.add_argument(
        "--max-outage",
        type=float,
        default=90.0,
        help="longest tolerated outage span in virtual seconds (default 90)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_ARTIFACT,
        help=f"artifact path (default {DEFAULT_ARTIFACT})",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def soak_main(argv: List[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.hours <= 0 or args.recovery_period < 0:
        print("soak: --hours must be > 0 and --recovery-period >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        slo = SoakSLO(
            window=args.window,
            availability_floor=args.availability_floor,
            max_outage_span=args.max_outage,
        )
    except ValueError as exc:
        print(f"soak: {exc}", file=sys.stderr)
        return EXIT_USAGE
    plan = generate_campaign(
        args.seed,
        topology=args.topology,
        hours=args.hours,
        watchdog=not args.no_watchdog,
        recovery_period=args.recovery_period,
    )
    options = {"check_interval": CHECK_INTERVAL, "slo": slo}
    outcome = run_plan(plan, log=None if args.quiet else print, **options)
    measured = outcome.probe
    rotation = plan.recovery_period if plan.recovery_period > 0 else "off"
    print(
        f"soak: {args.topology} x {args.hours}h (seed {args.seed}, rotation "
        f"{rotation}): {measured['probe_ops']} probe ops, availability "
        f"{measured['availability']:.4f} (worst window "
        f"{measured['min_window_availability']:.4f}), {outcome.events} events"
    )
    final = plan
    if outcome.violation is not None:
        print(f"soak: VIOLATION [{outcome.violation.oracle}]: {outcome.violation.detail}")
        print(f"soak: shrinking the {len(plan.steps)}-step campaign ...")
        shrunk = shrink_plan(plan, outcome.violation, lambda p: run_plan(p, **options).violation)
        final = shrunk.plan
        if final != plan:  # the artifact records the shrunk run's whole verdict
            outcome = run_plan(final, **options)
        print(f"soak: shrunk to {len(final.steps)} steps in {shrunk.runs} runs")
    write_artifact(
        args.out,
        final,
        outcome.violation,
        original_plan=plan if final != plan else None,
        outcome=outcome.to_dict(),
        **options,
    )
    if outcome.violation is None:
        print(f"soak: SLO held; artifact written to {args.out}")
        return EXIT_OK
    print(f"soak: artifact written to {args.out} (replay with: repro replay {args.out})")
    return EXIT_VIOLATION
