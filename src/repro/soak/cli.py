"""``repro soak`` — run a seeded long-horizon campaign from the command line.

Exit codes: 0 = every SLO and safety oracle held, 1 = an SLO or safety
violation was recorded (the artifact is written either way so any verdict
can be replayed), 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.net.topology import PRESETS
from repro.soak.campaign import generate_campaign
from repro.soak.runner import SoakSLO, run_soak, write_soak_artifact

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
    log = None if args.quiet else print
    report = run_soak(plan, slo=slo, log=log)
    write_soak_artifact(args.out, plan, slo, report)
    rotation = plan.recovery_period if plan.recovery_period > 0 else "off"
    print(
        f"soak: {args.topology} x {args.hours}h (seed {args.seed}, rotation "
        f"{rotation}): {report.probe_ops} probe ops, availability "
        f"{report.availability:.4f} (worst window "
        f"{report.min_window_availability:.4f}), {report.events} events"
    )
    if report.ok:
        print(f"soak: SLO held; artifact written to {args.out}")
        return EXIT_OK
    for violation in report.safety_violations:
        print(f"soak: SAFETY VIOLATION [{violation.get('oracle')}]: {violation.get('detail')}")
    for violation in report.slo_violations[:5]:
        print(f"soak: SLO VIOLATION: {violation.get('detail')}")
    extra = len(report.slo_violations) - 5
    if extra > 0:
        print(f"soak: ... and {extra} more SLO violations")
    print(f"soak: artifact written to {args.out} (replay with: repro replay {args.out})")
    return EXIT_VIOLATION
