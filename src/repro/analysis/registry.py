"""Rule registry and the contexts rules run against.

Three kinds of rule:

* **file rules** see one parsed module at a time (:class:`FileContext`).
  Rules registered with ``deterministic_only=True`` run only on files inside
  the configured deterministic scope.
* **project rules** see every parsed module at once (:class:`ProjectIndex`).
* **flow rules** additionally see the call graph built by
  :mod:`repro.analysis.flow` (once per run, shared by the taint rules).

Registration is declarative::

    @file_rule("DET001", "wall-clock-read", "replicas must not read ...",
               deterministic_only=True)
    def det001(ctx):
        yield ctx.violation("DET001", node, "...")

New rule families plug in by importing :func:`file_rule`/:func:`project_rule`/
:func:`flow_rule` and getting imported from :mod:`repro.analysis.engine`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.violations import Suppression, Violation


@dataclass
class FileContext:
    """One parsed module plus everything a file rule needs to judge it."""

    path: Path
    relpath: str  # posix, relative to the project root
    source: str
    tree: ast.Module
    config: LintConfig
    deterministic: bool
    suppressions: List[Suppression] = field(default_factory=list)
    # name -> imported module path ("import random as rnd" => {"rnd": "random"})
    module_aliases: Dict[str, str] = field(default_factory=dict)
    # name -> (module, attr) ("from time import time" => {"time": ("time", "time")})
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=rule,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def resolve_attr_chain(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression, with import aliases resolved.

        ``self._rng.random`` resolves to ``None`` (the base is not an
        imported module), ``rnd.Random`` resolves to ``random.Random`` under
        ``import random as rnd``, and a bare ``open`` resolves to ``open``.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = current.id
        if base in self.from_imports:
            module, attr = self.from_imports[base]
            resolved = f"{module}.{attr}"
        elif base in self.module_aliases:
            resolved = self.module_aliases[base]
        elif parts:
            # Attribute access on a non-imported name (self.x, local var):
            # not statically resolvable to a module function.
            return None
        else:
            resolved = base  # a builtin or local bare name
        return ".".join([resolved] + list(reversed(parts)))

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        return self.resolve_attr_chain(call.func)


@dataclass
class ProjectIndex:
    """All parsed modules of one lint run, for cross-file rules."""

    config: LintConfig
    files: List[FileContext]


@dataclass(frozen=True)
class RuleInfo:
    """Registry entry: identity plus where the rule runs."""

    id: str
    name: str
    summary: str
    kind: str  # "file" | "project" | "flow"
    deterministic_only: bool
    check: Callable[..., Iterator[Violation]]


_REGISTRY: Dict[str, RuleInfo] = {}

#: Meta diagnostics emitted by the engine itself (not registered callables,
#: but valid targets for ``disable`` and documented alongside real rules).
META_RULES: Dict[str, str] = {
    "LINT901": "suppression names an unknown rule id",
    "LINT902": "suppression is missing a reason",
    "LINT903": "suppression matched no violation (stale allow)",
    "LINT904": "file could not be parsed",
}


def file_rule(
    rule_id: str, name: str, summary: str, deterministic_only: bool = False
) -> Callable[[Callable[[FileContext], Iterable[Violation]]], Callable]:
    def register(check: Callable[[FileContext], Iterable[Violation]]) -> Callable:
        _add(RuleInfo(rule_id, name, summary, "file", deterministic_only, check))
        return check

    return register


def project_rule(
    rule_id: str, name: str, summary: str
) -> Callable[[Callable[[ProjectIndex], Iterable[Violation]]], Callable]:
    def register(check: Callable[[ProjectIndex], Iterable[Violation]]) -> Callable:
        _add(RuleInfo(rule_id, name, summary, "project", False, check))
        return check

    return register


def flow_rule(
    rule_id: str, name: str, summary: str
) -> Callable[[Callable[..., Iterable[Violation]]], Callable]:
    """Register an interprocedural rule.  The check receives a
    ``repro.analysis.flow.FlowContext``: a :class:`ProjectIndex` plus the
    call graph, built once and shared across flow rules."""

    def register(check: Callable[..., Iterable[Violation]]) -> Callable:
        _add(RuleInfo(rule_id, name, summary, "flow", False, check))
        return check

    return register


def _add(info: RuleInfo) -> None:
    if info.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {info.id}")
    _REGISTRY[info.id] = info


def all_rules() -> List[RuleInfo]:
    return sorted(_REGISTRY.values(), key=lambda info: info.id)


def is_known_rule(rule_id: str) -> bool:
    return rule_id in _REGISTRY or rule_id in META_RULES
