"""``repro explore`` / ``repro replay`` — exploration from the command line.

Exit codes (both subcommands): 0 = no oracle violation, 1 = a violation was
found (explore writes the shrunk repro artifact) or, for replay, the artifact
recorded a whole verdict that the replay does not reproduce, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.bft.config import VARIANTS
from repro.explore.interpreter import (
    DEPLOYMENTS,
    OPT_IN_FAMILIES,
    PlanError,
    deployment_for,
)
from repro.explore.runner import explore, run_plan
from repro.explore.shrink import load_artifact, write_artifact

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_ARTIFACT = "explore-repro.json"


def _explore_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explore",
        description="Explore seeded random fault schedules under safety oracles.",
    )
    parser.add_argument("--budget", type=int, default=25, help="plans to run (default 25)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--requests", type=int, default=24, help="workload requests per plan (default 24)"
    )
    parser.add_argument(
        "--max-steps", type=int, default=6, help="max fault steps per plan (default 6)"
    )
    parser.add_argument(
        "--plant",
        choices=sorted({plant for row in DEPLOYMENTS.values() for plant in row.plants}),
        default=None,
        help="plant a known protocol regression (exploration should find it)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="explore against a sharded deployment of N independent BASE "
        "groups with a cross-shard transactional workload (default 1: the "
        "classic one-group exploration)",
    )
    parser.add_argument(
        "--check-interval",
        type=int,
        default=10,
        help="events between oracle sweeps (default 10)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_ARTIFACT,
        help=f"repro artifact path on violation (default {DEFAULT_ARTIFACT})",
    )
    parser.add_argument(
        "--family",
        choices=OPT_IN_FAMILIES,
        default=None,
        help="add one step family to every generated plan (docs/simulation.md "
        "has the support matrix of deployments, variants and families)",
    )
    parser.add_argument(
        "--variant",
        choices=list(VARIANTS),
        default="baseline",
        help="run every plan under this protocol variant (default baseline); "
        "each turns on one more of pipelined ordering, speculative execution "
        "and read leases, and the oracles must hold exactly as they do for "
        "the baseline protocol",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def explore_main(argv: List[str]) -> int:
    try:
        args = _explore_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if min(args.budget, args.requests, args.check_interval) < 1 or args.max_steps < 0:
        print("explore: --budget, --requests and --check-interval must be >= 1, "
              "--max-steps >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = explore(
            budget=args.budget,
            seed=args.seed,
            requests=args.requests,
            max_steps=args.max_steps,
            plant=args.plant,
            check_interval=args.check_interval,
            family=args.family,
            log=None if args.quiet else print,
            variant=args.variant,
            shards=args.shards,
        )
    except PlanError as exc:
        # Refused before a cluster was built: a shard count below one, a
        # refused cell of the support matrix, or a plant of another deployment.
        print(f"explore: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not result.found:
        print(
            f"explore: {result.plans_run} plans (seed {result.seed}) "
            f"held every safety oracle"
        )
        return EXIT_OK
    final_plan = result.shrunk_plan or result.plan
    final_violation = result.shrunk_violation or result.violation
    assert final_plan is not None and final_violation is not None
    write_artifact(
        args.out,
        final_plan,
        final_violation,
        plant=args.plant,
        original_plan=result.plan if result.shrunk_plan else None,
        shards=args.shards,
        check_interval=args.check_interval,
        config_overrides=VARIANTS[args.variant].overrides,
    )
    print(
        f"explore: VIOLATION [{final_violation.oracle}] after "
        f"{result.plans_run} plans: {final_violation.detail}"
    )
    print(
        f"explore: repro with {len(final_plan.steps)} fault steps written to "
        f"{args.out} (replay with: repro replay {args.out})"
    )
    return EXIT_VIOLATION


def _replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro replay",
        description=(
            "Deterministically re-execute a saved repro artifact (of "
            "repro explore or repro soak) under the configuration it recorded."
        ),
    )
    parser.add_argument("artifact", help="path to a JSON repro artifact")
    return parser


def replay_main(argv: List[str]) -> int:
    try:
        args = _replay_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    path = Path(args.artifact)
    if not path.is_file():
        print(f"replay: no such artifact: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        loaded = load_artifact(path)
        expected = json.loads(path.read_text()).get("outcome")
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"replay: malformed artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _replay_plan(*loaded, expected)
    except PlanError as exc:
        # Refused before a cluster was built.  Any other exception came out
        # of the run itself and is a bug to see, not a usage error.
        print(f"replay: malformed artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _replay_plan(plan, recorded, plant, options, expected) -> int:
    """Re-execute the artifact's plan.  Any difference from a recorded whole
    verdict (``expected``, a soak's) fails, even when every oracle held."""
    outcome = run_plan(plan, plant=plant, **options)
    observed = outcome.violation
    if observed is None:
        saw = f" (recorded run saw [{recorded['oracle']}])" if recorded else ""
        print(f"replay: no violation{saw}; {outcome.events} events")
    else:
        print(
            f"replay: VIOLATION [{observed.oracle}] at t={observed.time:.4f} "
            f"(event {observed.event_index}): {observed.detail}"
        )
    matches = expected is None or outcome.to_dict() == expected
    if expected is not None:
        kind = deployment_for(options["shards"], "slo" in options)
        print(
            f"replay: reproduces the recorded {kind} run exactly"
            if matches
            else f"replay: WARNING - {kind} verdict differs from the recorded one"
        )
    elif observed is not None:
        print(
            "replay: reproduces the recorded violation exactly"
            if observed.to_dict() == recorded
            else "replay: WARNING - violation differs from the recorded one"
        )
    if observed is None:
        return EXIT_OK if matches else EXIT_VIOLATION
    print("replay: where the run left each replica:")
    for row in outcome.replica_states:
        state = " ".join(
            f"{key}={value}" for key, value in row.items() if key not in ("group", "replica")
        )
        print(f"replay:   group {row['group']} {row['replica']}: {state}")
    return EXIT_VIOLATION

