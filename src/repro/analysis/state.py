"""STATE2xx: abstraction-surface rules.

The BASE library (paper Figure 1) relies on every conformance wrapper
implementing the full abstraction surface — ``execute`` plus the abstraction
function and its inverse (``get_obj``/``put_objs``) — and on every state
machine supplying the upcalls its state manager calls back into.  A
partially-implemented wrapper works in the normal case and then crashes the
first time a replica fetches state or rolls a speculation back, which is
exactly when fault tolerance is being relied upon; these rules surface the
gap at lint time instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.registry import ProjectIndex, project_rule
from repro.analysis.violations import Violation

#: The surface ConformanceWrapper subclasses must provide (save_for_recovery
#: has a safe no-op default and is deliberately not required).
_WRAPPER_REQUIRED = ("execute", "get_obj", "put_objs")

#: What a StateMachine subclass must still write: the base class forwards
#: checkpointing, the client table, speculation and both sides of state
#: transfer to its AbstractStateManager, which needs the service's execution,
#: the inverse abstraction function, and the specification's genesis digest.
_STATE_MACHINE_REQUIRED = ("execute", "put_objs", "genesis_root_digest")


def _defined_methods(cls: ast.ClassDef) -> Set[str]:
    return {
        node.name
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _direct_base_names(cls: ast.ClassDef) -> Set[str]:
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _missing(cls: ast.ClassDef, required) -> list:
    defined = _defined_methods(cls)
    return [name for name in required if name not in defined]


@project_rule(
    "STATE200",
    "wrapper-full-surface",
    "conformance wrappers must implement execute, get_obj, and put_objs",
)
def state200_wrapper_surface(index: ProjectIndex) -> Iterator[Violation]:
    for ctx in index.files:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "ConformanceWrapper" not in _direct_base_names(node):
                continue
            missing = _missing(node, _WRAPPER_REQUIRED)
            if missing:
                yield ctx.violation(
                    "STATE200",
                    node,
                    f"conformance wrapper `{node.name}` is missing "
                    f"{', '.join(missing)}: checkpointing and state transfer "
                    "need the full abstraction function and its inverse",
                )


@project_rule(
    "STATE201",
    "state-machine-full-surface",
    "StateMachine subclasses must implement execute, put_objs and "
    "genesis_root_digest",
)
def state201_machine_surface(index: ProjectIndex) -> Iterator[Violation]:
    for ctx in index.files:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "StateMachine" not in _direct_base_names(node):
                continue
            missing = _missing(node, _STATE_MACHINE_REQUIRED)
            if missing:
                yield ctx.violation(
                    "STATE201",
                    node,
                    f"state machine `{node.name}` is missing "
                    f"{', '.join(missing)}: the base class's checkpoint, "
                    "state-transfer and rollback surface calls back into them",
                )
