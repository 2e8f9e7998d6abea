"""PROTO103: the agreed non-determinism argument.

``execute`` overrides on state machines and conformance wrappers accept the
agreed non-determinism argument (``nondet`` / ``timestamp_micros``) instead
of reading local clocks (the DET rules ban the clocks themselves).

The other structural facts about the protocol layer are not lint rules.
That every message has a canonical encoding opening with a unique wire tag is
checked by ``Message.__init_subclass__`` on every import; that every message
class is dispatched by the node it is addressed to, by
``tests/bft/test_golden_wire.py::test_every_message_type_reaches_its_receiver``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.registry import ProjectIndex, project_rule
from repro.analysis.violations import Violation


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


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
                continue  # inherited, or abstract: instantiation refuses it
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
