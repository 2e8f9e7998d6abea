"""Static analysis: the determinism & protocol-invariant linter.

The paper's technique only works if replicas are deterministic state
machines: abstraction hides implementation nondeterminism, and whatever
cannot be hidden must flow through the agreed ``nondet`` value
(:mod:`repro.bft.nondet`).  Nothing in Python enforces that contract, so
this package turns it into a machine-checked invariant:

* **DET0xx** — determinism rules, applied to code that executes inside a
  replica (fileservers, conformance wrappers, the BASE library, the
  state-machine interface): no wall clocks, no unseeded randomness, no
  environment/filesystem/network reads, no concurrency, no
  memory-address-dependent values (``id``/``hash``), no unordered set
  iteration.
* **PROTO1xx** — protocol rules over the BFT message set: every
  :class:`~repro.bft.messages.Message` subclass has a registered handler;
  ``execute`` overrides thread the agreed ``nondet`` value instead of
  reading local clocks.
* **STATE2xx** — abstraction rules: conformance wrappers and state
  machines implement the full ``get_obj``/``put_objs``/checkpoint surface
  the library relies on.
* **LINT9xx** — meta rules about the lint annotations themselves
  (unknown rule ids, missing reasons, unused suppressions, syntax
  errors).

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
