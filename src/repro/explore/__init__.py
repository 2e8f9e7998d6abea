"""Deterministic fault-schedule exploration (FoundationDB-style testing).

Seeded random fault plans + schedule perturbation run against the simulated
BFT cluster with continuous safety oracles; violations shrink to minimal,
replayable JSON artifacts.  See docs/simulation.md ("Exploring schedules").
"""

from repro.explore.interpreter import validate_plan
from repro.explore.oracles import OracleSuite, OracleViolation, Violation
from repro.explore.plan import FaultPlan, FaultStep, generate_plan
from repro.explore.runner import ExploreResult, RunOutcome, explore, run_plan
from repro.explore.shrink import (
    load_artifact,
    shrink_plan,
    write_artifact,
)

__all__ = [
    "ExploreResult",
    "FaultPlan",
    "FaultStep",
    "OracleSuite",
    "OracleViolation",
    "RunOutcome",
    "Violation",
    "explore",
    "generate_plan",
    "load_artifact",
    "run_plan",
    "shrink_plan",
    "validate_plan",
    "write_artifact",
]
