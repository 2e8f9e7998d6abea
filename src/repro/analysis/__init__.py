"""Static analysis: the determinism linter.

The paper's technique only works if replicas are deterministic state
machines: abstraction hides implementation nondeterminism, and whatever
cannot be hidden must flow through the agreed ``nondet`` value
(:mod:`repro.bft.nondet`).  Nothing in Python enforces that contract, and a
single-process simulator cannot observe it being broken, so this package
checks it statically:

* **DET0xx** — determinism rules, applied to code that executes inside a
  replica (fileservers, conformance wrappers, the BASE library, the BFT
  package): no wall clocks, no unseeded randomness, no
  environment/filesystem/network reads, no concurrency, no
  memory-address-dependent values (``id``/``hash``), no unordered set
  iteration.
* **TAINT4xx** — the same rules closed over the call graph: a helper outside
  the scope that reaches a primitive, called or read from inside it
  (:mod:`repro.analysis.flow`).
* **PROTO103** — ``execute`` overrides thread the agreed ``nondet`` value
  instead of reading local clocks.
* **LINT9xx** — meta rules about the lint annotations themselves
  (unknown rule ids, missing reasons, unused suppressions, syntax
  errors).

What a test catches sooner is a test, not a rule: vote thresholds, dispatch
arms and the abstraction surface (docs/determinism.md, "What guards what").

Entry points: ``python -m repro lint`` (or the ``repro`` console script),
:func:`repro.analysis.engine.lint_project` for programmatic use, and
``tests/analysis/test_self_lint.py`` which lints this repository so the
test suite fails when a determinism invariant regresses.
"""

from __future__ import annotations

from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import LintResult, lint_project
from repro.analysis.violations import Violation

__all__ = [
    "LintConfig",
    "LintResult",
    "Violation",
    "lint_project",
    "load_config",
]
