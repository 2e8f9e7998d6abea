"""TAINT4xx: interprocedural nondeterminism taint.

The per-file DET rules (:mod:`repro.analysis.determinism`) only see
primitives called *directly* inside deterministic-scope files.  Wrapping the
primitive in a helper that lives outside the scope launders it::

    # repro/util/ids.py (not deterministic scope)
    def fresh_id():
        return uuid.uuid4().hex        # invisible to per-file lint

    # repro/oodb/db.py (deterministic scope)
    handle = fresh_id()                # replicas now diverge

This pass rebuilds the missing link: every DET-primitive call outside the
deterministic scope becomes a taint root, taint propagates backwards over the
call graph, and a deterministic-scope call site whose callee (transitively)
reaches a root is flagged with the full source→sink chain:

* **TAINT401** — a deterministic-scope function calls an out-of-scope helper
  whose call tree reaches a nondeterminism primitive.
* **TAINT402** — an out-of-scope method stores a primitive-derived value in
  an instance attribute, and deterministic-scope code reads that attribute
  (laundering through state instead of through a return value).

Primitives suppressed at their own line with ``# repro: allow[DET00x]``
are accepted nondeterminism and do not seed taint; TAINT401/402 findings
accept the same inline-suppression mechanism at the sink line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.determinism import (
    _AMBIENT_CALLS,
    _RANDOM_MODULE_FNS,
    _WALL_CLOCK_CALLS,
)
from repro.analysis.flow.callgraph import CallGraph, FunctionInfo
from repro.analysis.registry import FileContext, flow_rule
from repro.analysis.violations import Violation


@dataclass(frozen=True)
class TaintRoot:
    """One nondeterminism-primitive call outside the deterministic scope."""

    qualname: str  # function containing the call
    dotted: str  # primitive name (time.time, open, ...)
    rule: str  # the DET rule the primitive belongs to
    relpath: str
    line: int


def primitive_rule(dotted: Optional[str], call: ast.Call) -> Optional[str]:
    """DET rule id for a resolved call name, mirroring the per-file rules."""
    if dotted is None:
        return None
    if dotted in _WALL_CLOCK_CALLS:
        return "DET001"
    if dotted == "random.SystemRandom":
        return "DET002"
    if dotted == "random.Random":
        # Seeded generators are deterministic; only the unseeded form taints.
        if not call.args and not call.keywords:
            return "DET002"
        return None
    if dotted.startswith("random.") and dotted[len("random.") :] in _RANDOM_MODULE_FNS:
        return "DET002"
    if dotted in ("os.urandom", "uuid.uuid1", "uuid.uuid4") or dotted.startswith(
        "secrets."
    ):
        return "DET003"
    if dotted in _AMBIENT_CALLS:
        return "DET004"
    if dotted == "id":
        return "DET006"
    if dotted == "hash":
        return "DET008"
    return None


def _allowed(ctx: FileContext, line: int, rule: str) -> bool:
    """True when an inline suppression with a reason covers (line, rule).

    Matching suppressions are marked used: accepting nondeterminism at its
    source is what stops it from seeding taint, so the allow did real work
    even though no violation ever materialised against it.
    """
    for suppression in ctx.suppressions:
        if (
            rule in suppression.rules
            and suppression.reason
            and line in (suppression.line, suppression.target_line)
        ):
            suppression.used = True
            return True
    return False


@dataclass
class TaintState:
    """Taint facts computed once per lint run and shared by the rules."""

    # function qualname -> its first direct primitive root
    direct: Dict[str, TaintRoot]
    # every tainted function (direct or transitive)
    tainted: Set[str]
    # tainted function -> next callee on a shortest path to a root
    via: Dict[str, str]

    def chain(self, qualname: str) -> Tuple[List[str], Optional[TaintRoot]]:
        """Call chain from ``qualname`` down to its primitive root."""
        path = [qualname]
        seen = {qualname}
        current = qualname
        while current not in self.direct:
            nxt = self.via.get(current)
            if nxt is None or nxt in seen:
                return path, None
            path.append(nxt)
            seen.add(nxt)
            current = nxt
        return path, self.direct[current]


def compute_taint(graph: CallGraph) -> TaintState:
    direct: Dict[str, TaintRoot] = {}
    for func in graph.functions.values():
        if func.deterministic:
            # In-scope primitives are the per-file rules' job; if suppressed
            # there, the nondeterminism is accepted and does not seed taint.
            continue
        for site in func.calls:
            rule = primitive_rule(site.dotted, site.node)
            if rule is None:
                continue
            line = getattr(site.node, "lineno", 1)
            if _allowed(func.ctx, line, rule):
                continue
            if func.qualname not in direct:
                direct[func.qualname] = TaintRoot(
                    qualname=func.qualname,
                    dotted=site.dotted or "?",
                    rule=rule,
                    relpath=func.relpath,
                    line=line,
                )

    # Breadth-first over reverse call edges: propagating from the roots
    # outward yields shortest source→sink chains for the diagnostics.  Taint
    # only travels through out-of-scope functions — an in-scope caller is a
    # *sink* (reported by TAINT401), not a further carrier.
    callers = graph.callers_of()
    tainted: Set[str] = set(direct)
    via: Dict[str, str] = {}
    frontier = list(direct)
    while frontier:
        next_frontier: List[str] = []
        for callee in frontier:
            callee_info = graph.functions.get(callee)
            if callee_info is None or callee_info.deterministic:
                continue
            for caller in callers.get(callee, []):
                if caller in tainted:
                    continue
                tainted.add(caller)
                via[caller] = callee
                next_frontier.append(caller)
        frontier = next_frontier
    return TaintState(direct=direct, tainted=tainted, via=via)


def _taint_state(fctx) -> TaintState:
    if "taint" not in fctx.cache:
        fctx.cache["taint"] = compute_taint(fctx.callgraph)
    return fctx.cache["taint"]


def _render_chain(names: List[str], root: Optional[TaintRoot]) -> str:
    rendered = " -> ".join(names)
    if root is not None:
        rendered += f" -> {root.dotted}() [{root.rule}] at {root.relpath}:{root.line}"
    return rendered


@flow_rule(
    "TAINT401",
    "laundered-nondeterminism",
    "deterministic-scope code calls an out-of-scope helper that reaches a "
    "nondeterminism primitive",
)
def taint401_laundered_call(fctx) -> Iterator[Violation]:
    state = _taint_state(fctx)
    graph = fctx.callgraph
    for func in graph.functions.values():
        if not func.deterministic:
            continue
        reported: Set[str] = set()
        for site in func.calls:
            for callee in site.callees:
                callee_info = graph.functions.get(callee)
                if (
                    callee_info is None
                    or callee_info.deterministic
                    or callee not in state.tainted
                    or callee in reported
                ):
                    continue
                reported.add(callee)
                names, root = state.chain(callee)
                yield Violation(
                    rule="TAINT401",
                    path=func.relpath,
                    line=getattr(site.node, "lineno", 1),
                    col=getattr(site.node, "col_offset", 0),
                    message=(
                        f"`{func.name}` runs in deterministic scope but this "
                        "call reaches a nondeterminism primitive: "
                        + _render_chain(names, root)
                    ),
                )


def _store_taints(
    graph: CallGraph, state: TaintState
) -> Dict[Tuple[str, str], TaintRoot]:
    """(class, attribute) pairs assigned primitive-derived values out of scope."""
    stores: Dict[Tuple[str, str], TaintRoot] = {}
    for func in graph.functions.values():
        if func.deterministic or func.class_name is None:
            continue
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Assign):
                continue
            targets = [
                t
                for t in node.targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ]
            if not targets:
                continue
            root = _value_taint(node.value, func, graph, state)
            if root is None:
                continue
            for target in targets:
                stores.setdefault((func.class_name, target.attr), root)
    return stores


def _value_taint(
    expr: ast.AST, func: FunctionInfo, graph: CallGraph, state: TaintState
) -> Optional[TaintRoot]:
    """Taint root reached by any call inside ``expr``, if one exists."""
    for node in ast.walk(expr):
        if not isinstance(node, ast.Call):
            continue
        dotted = func.ctx.resolve_call(node)
        rule = primitive_rule(dotted, node)
        line = getattr(node, "lineno", 1)
        if rule is not None and not _allowed(func.ctx, line, rule):
            return TaintRoot(
                qualname=func.qualname,
                dotted=dotted or "?",
                rule=rule,
                relpath=func.relpath,
                line=line,
            )
        for site in func.calls:
            if site.node is node:
                for callee in site.callees:
                    if callee in state.tainted:
                        _, root = state.chain(callee)
                        if root is not None:
                            return root
    return None


@flow_rule(
    "TAINT402",
    "tainted-attribute-read",
    "deterministic-scope code reads an attribute assigned from a "
    "nondeterminism primitive outside the scope",
)
def taint402_attribute_laundering(fctx) -> Iterator[Violation]:
    state = _taint_state(fctx)
    graph = fctx.callgraph
    stores = _store_taints(graph, state)
    if not stores:
        return
    for func in graph.functions.values():
        if not func.deterministic:
            continue
        local_types = graph.local_types(func)
        reported: Set[Tuple[str, str]] = set()
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Attribute) or not isinstance(
                node.ctx, ast.Load
            ):
                continue
            receiver = graph.infer_type(node.value, func, local_types)
            if receiver is None:
                continue
            key = (receiver, node.attr)
            if key not in stores or key in reported:
                continue
            reported.add(key)
            root = stores[key]
            yield Violation(
                rule="TAINT402",
                path=func.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=(
                    f"reads `{receiver}.{node.attr}`, which is assigned from "
                    f"`{root.dotted}()` [{root.rule}] at {root.relpath}:"
                    f"{root.line} outside deterministic scope"
                ),
            )
