"""PROTO1xx: protocol invariants over the PBFT message set.

These are cross-file rules: they read the message definitions
(``src/repro/bft/messages.py`` by default) and the dispatch code around them
and check structural invariants of the protocol layer:

* every message class is dispatched somewhere (an ``isinstance`` arm in the
  replica/client/view-change/state-transfer code) — an unhandled message is
  silently dropped as "unknown";
* ``execute`` overrides on state machines and conformance wrappers accept
  the agreed non-determinism argument (``nondet`` / ``timestamp_micros``)
  instead of reading local clocks (the DET rules ban the clocks themselves).

That every message has a canonical encoding opening with a unique wire tag is
not a lint rule: ``Message.__init_subclass__`` refuses to create a class
without one, on every import.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.registry import FileContext, ProjectIndex, project_rule
from repro.analysis.violations import Violation

_MESSAGE_BASE = "Message"


def _message_classes(messages_ctx: FileContext) -> List[ast.ClassDef]:
    """Message subclasses in definition order (direct subclasses only: the
    message set is flat by design)."""
    found = []
    for node in messages_ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
            if _MESSAGE_BASE in bases:
                found.append(node)
    return found


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


@project_rule(
    "PROTO101",
    "message-has-handler",
    "every Message subclass must be dispatched by an isinstance arm somewhere",
)
def proto101_handlers(index: ProjectIndex) -> Iterator[Violation]:
    messages_ctx = index.by_relpath(index.config.protocol_messages)
    if messages_ctx is None:
        return
    handled: Set[str] = set()
    for ctx in index.dispatch_files():
        if ctx.relpath == messages_ctx.relpath:
            continue
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                handled.update(_type_names(node.args[1]))
    for cls in _message_classes(messages_ctx):
        if cls.name not in handled:
            yield messages_ctx.violation(
                "PROTO101",
                cls,
                f"message class `{cls.name}` has no isinstance dispatch arm in "
                "the protocol code: replicas would count it as unknown_message "
                "and drop it",
            )


def _type_names(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _type_names(element)
    elif isinstance(node, ast.Attribute):
        yield node.attr


_EXECUTE_BASES = {"StateMachine", "ConformanceWrapper"}
_NONDET_PARAMS = {"nondet", "timestamp_micros"}


@project_rule(
    "PROTO103",
    "execute-threads-nondet",
    "execute overrides must accept the agreed nondet/timestamp argument",
)
def proto103_execute_nondet(index: ProjectIndex) -> Iterator[Violation]:
    for ctx in index.files:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
            if not bases & _EXECUTE_BASES:
                continue
            func = _method(node, "execute")
            if func is None:
                continue  # STATE2xx rules own missing-method diagnostics
            params = {arg.arg for arg in func.args.args + func.args.kwonlyargs}
            if not params & _NONDET_PARAMS:
                yield ctx.violation(
                    "PROTO103",
                    func,
                    f"`{node.name}.execute` takes no agreed non-determinism "
                    "argument (`nondet` or `timestamp_micros`): any "
                    "time-dependent behaviour would read local state and "
                    "diverge replicas (paper section 2.2)",
                )
