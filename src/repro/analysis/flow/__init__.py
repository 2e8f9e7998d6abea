"""Interprocedural layer of ``python -m repro lint``.

Builds on the per-file rules: same file collection, config, suppressions and
reporters, plus what a per-file rule cannot express:

* :mod:`repro.analysis.flow.callgraph` — a heuristic intra-project call graph;
* :mod:`repro.analysis.flow.taint` — TAINT4xx, nondeterminism laundered
  through helpers outside the deterministic scope.

Importing this package registers the taint rules (docs/determinism.md).
"""

from repro.analysis.flow import taint  # noqa: F401  (rule registration)
from repro.analysis.flow.context import FlowContext

__all__ = ["FlowContext"]
