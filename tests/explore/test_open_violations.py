"""Open violations in runnable cells of the support matrix, one shrunk
artifact each (``tests/explore/artifacts``), replayed as strict xfails: a
change that fixes one makes its replay pass, which fails here until the
entry (and, for a kept-out cell, its ``KEPT_OUT`` row) is removed.

- ``baseline-overload`` / ``fast-path-overload``: `--family overload` at
  ``--budget 25 --requests 16 --seed 0``, plans 23 and 5.  A view change
  starts during a fault-free overload episode; these two cells are kept out
  of CI.
- ``baseline-implementation`` / ``speculation-implementation``:
  ``--family implementation --budget 300 --seed 3``, plans 233 and 246;
  ``fast-path-implementation``: the same at ``--seed 0``, plan 100.  No reply
  quorum after the heal.

The last three cells stay in CI: its budget does not reach these plans.

The rest are the acceptance sweep of the support matrix: every cell CI runs,
at ``--budget 300 --requests 16`` and seeds 0-3 (docs/simulation.md,
"Acceptance sweep"), one artifact ``<variant>-<family or none>-s<seed>`` per
violating seed.  The earliest is plan 26 at seed 0, so these cells stay in
CI as well.
"""

from pathlib import Path

import pytest

from repro.explore.interpreter import KEPT_OUT
from repro.explore.runner import run_plan
from repro.explore.shrink import load_artifact

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"
OPEN = {
    "baseline-overload": "overload-goodput",
    "fast-path-overload": "overload-goodput",
    "baseline-implementation": "liveness",
    "speculation-implementation": "liveness",
    "fast-path-implementation": "liveness",
    "baseline-none-s1": "liveness",
    "baseline-implementation-s1": "liveness",
    "baseline-implementation-s2": "liveness",
    "baseline-implementation-s3": "liveness",
    "pipelined-none-s1": "liveness",
    "pipelined-implementation-s0": "liveness",
    "pipelined-implementation-s1": "liveness",
    "pipelined-implementation-s2": "liveness",
    "pipelined-implementation-s3": "liveness",
    "pipelined-overload-s0": "overload-goodput",
    "pipelined-overload-s1": "overload-goodput",
    "pipelined-overload-s2": "overload-goodput",
    "pipelined-overload-s3": "overload-goodput",
    "speculation-implementation-s1": "liveness",
    "speculation-implementation-s2": "liveness",
    "speculation-implementation-s3": "liveness",
    "speculation-overload-s0": "overload-goodput",
    "speculation-overload-s1": "overload-goodput",
    "speculation-overload-s2": "overload-goodput",
    "speculation-overload-s3": "overload-goodput",
    "fast-path-implementation-s0": "liveness",
    "fast-path-implementation-s1": "liveness",
    "fast-path-implementation-s2": "liveness",
    "fast-path-implementation-s3": "liveness",
}


def test_every_artifact_is_an_open_violation_and_every_kept_out_cell_has_one():
    assert sorted(path.stem for path in ARTIFACTS.glob("*.json")) == sorted(OPEN)
    for name, oracle in OPEN.items():
        assert load_artifact(ARTIFACTS / f"{name}.json")[1]["oracle"] == oracle
    for artifact in KEPT_OUT.values():
        assert Path(artifact).stem in OPEN


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="open violation")
@pytest.mark.parametrize("name", list(OPEN))
def test_replays_with_no_violation(name):
    plan, _recorded, plant, options = load_artifact(ARTIFACTS / f"{name}.json")
    outcome = run_plan(plan, plant=plant, **options)
    assert outcome.violation is None, outcome.violation
