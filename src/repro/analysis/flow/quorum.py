"""QUORUM5xx: static quorum arithmetic for the BFT core.

PBFT safety rests on two thresholds (paper section 3, Castro & Liskov):

* a **certificate** needs ``2f+1`` votes (or ``2f`` prepares plus the
  pre-prepare) so any two certificates intersect in a correct replica;
* a **proof of one correct replica** needs ``f+1`` votes.

Every vote-count comparison in the configured quorum paths (default
``src/repro/bft``) is checked against those bounds.  The compared collection
is classified by what it holds (prepares, commits, checkpoints, view-changes,
replies) — via names, comprehension sources, accumulator loops, and type
annotations — and the threshold expression is normalized symbolically to
``a·f + b`` so ``self.config.quorum``, ``2 * self.config.f``, and
``self.config.f + 1`` all compare exactly.

Rules:

* **QUORUM501** — a vote count accepted below ``f+1``: every vote could come
  from a faulty replica.
* **QUORUM502** — a commit/checkpoint certificate accepted below ``2f+1``.
* **QUORUM503** — a prepare certificate accepted below ``2f`` (the
  pre-prepare supplies the ``+1``).
* **QUORUM504** — a dispatched message carries a checkpoint certificate but
  no function reachable from its dispatch arm counts a ``2f+1`` quorum
  derived from the certificate (a handler that trusts certs blindly).
* **QUORUM505** — a classified vote count compared against a hard-coded
  constant; thresholds must derive from ``config.f``.

The planted regressions in :mod:`repro.faults.plant` are the ground truth:
weakening ``prepared`` to ``>= f`` must raise QUORUM501/503, weakening
``committed_local`` to ``>= f + 1`` must raise QUORUM502, and stubbing out
``verify_checkpoint_cert`` must raise QUORUM504 on every cert-carrying
message.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    mentioned_classes,
)
from repro.analysis.registry import flow_rule
from repro.analysis.violations import Violation

Bound = Tuple[int, int]  # (a, b) meaning a·f + b

#: symbolic threshold attributes on BFTConfig, as a·f + b
_BOUND_ATTRS: Dict[str, Bound] = {
    "quorum": (2, 1),  # 2f+1
    "weak_quorum": (1, 1),  # f+1
    "f": (1, 0),
    "n": (3, 1),  # 3f+1
}

#: minimum acceptance bound per vote class
_CLASS_MINIMUM: Dict[str, Bound] = {
    "prepare": (2, 0),  # pre-prepare supplies the +1
    "commit": (2, 1),
    "checkpoint": (2, 1),
    "viewchange": (1, 1),  # f+1 join proof is legitimate
    "reply": (1, 1),
}

_CERT_CLASS = "CheckpointCert"

#: container methods that forward to the underlying vote collection
_WRAPPERS = {"values", "items", "keys", "get", "setdefault", "copy"}

_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def _tokens(name: str) -> List[str]:
    """snake/camel-case name split into lowercase word tokens."""
    return [t for t in re.split(r"[^A-Za-z0-9]+", _CAMEL.sub("_", name).lower()) if t]


def _classify_tokens(tokens: List[str]) -> Optional[str]:
    for i, token in enumerate(tokens):
        if token in ("prepare", "prepares", "prepared"):
            # pre_prepare / PrePrepare is a different message class
            if i > 0 and tokens[i - 1] == "pre":
                continue
            return "prepare"
        if token in ("commit", "commits"):
            return "commit"
        if token in ("checkpoint", "checkpoints"):
            return "checkpoint"
        if token == "view" and i + 1 < len(tokens) and tokens[i + 1] in (
            "change",
            "changes",
        ):
            return "viewchange"
        if token in ("reply", "replies"):
            return "reply"
    return None


@dataclass(frozen=True)
class VoteKind:
    cls: str  # key into _CLASS_MINIMUM
    cert_param: bool = False  # derived from a CheckpointCert-typed parameter


@dataclass
class QuorumSite:
    """One classified ``len(votes) OP threshold`` comparison."""

    func: FunctionInfo
    node: ast.Compare
    kind: VoteKind
    accepted: Bound  # smallest vote count that passes


# -- vote-collection classification ------------------------------------------------


class _Classifier:
    def __init__(self, graph: CallGraph, func: FunctionInfo) -> None:
        self.graph = graph
        self.func = func
        self.local_types = graph.local_types(func)

    def classify(self, expr: ast.AST, depth: int = 0) -> Optional[VoteKind]:
        if depth > 8:
            return None
        if isinstance(
            expr, (ast.SetComp, ast.ListComp, ast.GeneratorExp, ast.DictComp)
        ):
            gen = expr.generators[0]
            return self.classify(gen.iter, depth + 1) or self._by_target(gen.target)
        if isinstance(expr, ast.Call):
            return self._classify_call(expr, depth)
        if isinstance(expr, ast.Attribute):
            return self._classify_attribute(expr, depth)
        if isinstance(expr, ast.Name):
            return self._classify_name(expr.id, depth)
        return None

    def _classify_call(self, expr: ast.Call, depth: int) -> Optional[VoteKind]:
        callee = expr.func
        if isinstance(callee, ast.Attribute):
            if callee.attr in _WRAPPERS:
                return self.classify(callee.value, depth + 1)
            by_name = _classify_tokens(_tokens(callee.attr))
            if by_name:
                return VoteKind(by_name, self._cert_param(callee.value))
            return None
        if (
            isinstance(callee, ast.Name)
            and callee.id in ("set", "list", "sorted", "tuple", "frozenset", "dict")
            and expr.args
        ):
            return self.classify(expr.args[0], depth + 1)
        return None

    def _classify_attribute(self, expr: ast.Attribute, depth: int) -> Optional[VoteKind]:
        cert = self._cert_param(expr.value)
        by_name = _classify_tokens(_tokens(expr.attr))
        if by_name:
            return VoteKind(by_name, cert)
        receiver = self.graph.infer_type(expr.value, self.func, self.local_types)
        if receiver is not None:
            annotation = self.graph.attr_annotation(receiver, expr.attr)
            by_annotation = self._by_annotation(annotation)
            if by_annotation:
                return VoteKind(by_annotation, cert)
        return None

    def _classify_name(self, name: str, depth: int) -> Optional[VoteKind]:
        # 1. simple local assignment(s)
        for value in self._assignments(name):
            if _is_empty_accumulator(value):
                result = self._classify_accumulator(name, depth)
                if result:
                    return result
            else:
                result = self.classify(value, depth + 1)
                if result:
                    return result
        # 2. bound as a loop/comprehension target
        result = self._classify_bindings(name, depth)
        if result:
            return result
        # 3. annotations (param or local AnnAssign)
        annotation = self.func.param_annotations.get(name) or self._local_annotation(
            name
        )
        by_annotation = self._by_annotation(annotation)
        if by_annotation:
            return VoteKind(by_annotation)
        # 4. the name itself
        by_name = _classify_tokens(_tokens(name))
        if by_name:
            return VoteKind(by_name)
        return None

    def _assignments(self, name: str) -> List[ast.AST]:
        values: List[ast.AST] = []
        for node in ast.walk(self.func.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        values.append(node.value)
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name
                and node.value is not None
            ):
                values.append(node.value)
        return values

    def _classify_accumulator(self, name: str, depth: int) -> Optional[VoteKind]:
        """``x = set()`` then ``x.add(...)`` / ``x[...] = ...`` inside a loop:
        classify what the loop iterates."""
        for node in ast.walk(self.func.node):
            if not isinstance(node, ast.For):
                continue
            if not _loop_feeds(node, name):
                continue
            result = self.classify(node.iter, depth + 1)
            if result:
                return result
            result = self._by_target(node.target)
            if result:
                return result
        return None

    def _classify_bindings(self, name: str, depth: int) -> Optional[VoteKind]:
        for node in ast.walk(self.func.node):
            generators: List[ast.comprehension] = []
            if isinstance(
                node, (ast.SetComp, ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                generators = list(node.generators)
            for gen in generators:
                if _binds(gen.target, name):
                    result = self.classify(gen.iter, depth + 1)
                    if result:
                        return result
            if isinstance(node, ast.For) and _binds(node.target, name):
                result = self.classify(node.iter, depth + 1)
                if result:
                    return result
        return None

    def _by_target(self, target: ast.AST) -> Optional[VoteKind]:
        if isinstance(target, ast.Name):
            cls = _classify_tokens(_tokens(target.id))
            return VoteKind(cls) if cls else None
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                result = self._by_target(element)
                if result:
                    return result
        return None

    def _by_annotation(self, annotation: Optional[str]) -> Optional[str]:
        if not annotation:
            return None
        for cls_name in mentioned_classes(annotation, self.graph.class_names()):
            cls = _classify_tokens(_tokens(cls_name))
            if cls:
                return cls
        return None

    def _local_annotation(self, name: str) -> Optional[str]:
        for node in ast.walk(self.func.node):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name
            ):
                try:
                    return ast.unparse(node.annotation)
                except Exception:  # pragma: no cover
                    return None
        return None

    def _cert_param(self, expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Name)
            and self.func.param_types.get(expr.id) == _CERT_CLASS
        )


def _binds(target: ast.AST, name: str) -> bool:
    if isinstance(target, ast.Name):
        return target.id == name
    if isinstance(target, ast.Tuple):
        return any(_binds(element, name) for element in target.elts)
    return False


def _is_empty_accumulator(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "dict", "list") and not expr.args
    if isinstance(expr, (ast.Dict, ast.List)):
        return not getattr(expr, "keys", None) and not getattr(expr, "elts", None)
    return False


def _loop_feeds(loop: ast.For, name: str) -> bool:
    for inner in ast.walk(loop):
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr in ("add", "append")
            and isinstance(inner.func.value, ast.Name)
            and inner.func.value.id == name
        ):
            return True
        if isinstance(inner, ast.Assign):
            for target in inner.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    return True
    return False


# -- threshold normalization --------------------------------------------------------


def _normalize_bound(
    expr: ast.AST, func: FunctionInfo, depth: int = 0
) -> Optional[Bound]:
    if depth > 6:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return (0, expr.value)
    if isinstance(expr, ast.Attribute):
        return _BOUND_ATTRS.get(expr.attr)
    if isinstance(expr, ast.Name):
        if expr.id in _BOUND_ATTRS:
            return _BOUND_ATTRS[expr.id]
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == expr.id:
                        return _normalize_bound(node.value, func, depth + 1)
        return None
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            left = _normalize_bound(expr.left, func, depth + 1)
            right = _normalize_bound(expr.right, func, depth + 1)
            if left is None or right is None:
                return None
            if isinstance(expr.op, ast.Add):
                return (left[0] + right[0], left[1] + right[1])
            return (left[0] - right[0], left[1] - right[1])
        if isinstance(expr.op, ast.Mult):
            left, right = expr.left, expr.right
            if isinstance(left, ast.Constant) and isinstance(left.value, int):
                inner = _normalize_bound(right, func, depth + 1)
                scale = left.value
            elif isinstance(right, ast.Constant) and isinstance(right.value, int):
                inner = _normalize_bound(left, func, depth + 1)
                scale = right.value
            else:
                return None
            if inner is None:
                return None
            return (scale * inner[0], scale * inner[1])
        return None
    if isinstance(expr, ast.IfExp):
        body = _normalize_bound(expr.body, func, depth + 1)
        orelse = _normalize_bound(expr.orelse, func, depth + 1)
        if body is None or orelse is None:
            return None
        # A conditional threshold must satisfy the invariant in its *weakest*
        # branch (e.g. client.py: quorum for read-only, weak_quorum otherwise).
        return body if _is_weaker(body, orelse) else orelse
    return None


def _is_weaker(bound: Bound, required: Bound) -> bool:
    """True when ``bound`` admits fewer votes than ``required`` for some f≥1."""
    return bound[0] < required[0] or (
        bound[0] == required[0] and bound[1] < required[1]
    )


def render_bound(bound: Bound) -> str:
    a, b = bound
    if a == 0:
        return str(b)
    term = "f" if a == 1 else f"{a}f"
    if b == 0:
        return term
    return f"{term}+{b}" if b > 0 else f"{term}-{-b}"


def _is_len_call(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "len"
        and len(expr.args) == 1
        and not expr.keywords
    )


def _acceptance(bound: Bound, op: ast.cmpop, len_on_left: bool) -> Bound:
    """Smallest vote count that passes the comparison.

    Both branch polarities normalize to the same acceptance bound: a guard
    ``if len(v) < B: return`` accepts at B exactly like ``if len(v) >= B``.
    """
    if len_on_left:
        exclusive = isinstance(op, (ast.Gt, ast.LtE))
    else:
        exclusive = isinstance(op, (ast.Lt, ast.GtE))
    return (bound[0], bound[1] + 1) if exclusive else bound


# -- site collection ----------------------------------------------------------------


def collect_sites(fctx) -> List[QuorumSite]:
    if "quorum_sites" in fctx.cache:
        return fctx.cache["quorum_sites"]
    graph = fctx.callgraph
    sites: List[QuorumSite] = []
    for func in graph.functions.values():
        if not fctx.config.is_quorum_path(func.relpath):
            continue
        classifier: Optional[_Classifier] = None
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            op = node.ops[0]
            if not isinstance(op, (ast.Gt, ast.GtE, ast.Lt, ast.LtE)):
                continue
            left, right = node.left, node.comparators[0]
            if _is_len_call(left):
                votes, bound_expr, len_on_left = left.args[0], right, True
            elif _is_len_call(right):
                votes, bound_expr, len_on_left = right.args[0], left, False
            else:
                continue
            bound = _normalize_bound(bound_expr, func)
            if bound is None:
                continue
            if classifier is None:
                classifier = _Classifier(graph, func)
            kind = classifier.classify(votes)
            if kind is None:
                continue
            sites.append(
                QuorumSite(
                    func=func,
                    node=node,
                    kind=kind,
                    accepted=_acceptance(bound, op, len_on_left),
                )
            )
    fctx.cache["quorum_sites"] = sites
    return sites


def _site_violation(rule: str, site: QuorumSite, message: str) -> Violation:
    return Violation(
        rule=rule,
        path=site.func.relpath,
        line=getattr(site.node, "lineno", 1),
        col=getattr(site.node, "col_offset", 0),
        message=message,
    )


# -- rules --------------------------------------------------------------------------


@flow_rule(
    "QUORUM501",
    "sub-weak-quorum",
    "a vote count is accepted below f+1: every vote could be from a faulty replica",
)
def quorum501_below_weak(fctx) -> Iterator[Violation]:
    for site in collect_sites(fctx):
        if site.accepted[0] == 0:
            continue  # hard-coded constants are QUORUM505's finding
        if _is_weaker(site.accepted, (1, 1)):
            yield _site_violation(
                "QUORUM501",
                site,
                f"{site.kind.cls} votes accepted at {render_bound(site.accepted)} "
                "(< f+1): with f faulty replicas every vote counted here could "
                "be forged — even a proof-of-one-correct needs f+1",
            )


@flow_rule(
    "QUORUM502",
    "weak-certificate",
    "a commit/checkpoint certificate is accepted below 2f+1",
)
def quorum502_weak_certificate(fctx) -> Iterator[Violation]:
    for site in collect_sites(fctx):
        if site.kind.cls not in ("commit", "checkpoint"):
            continue
        if site.accepted[0] == 0 or _is_weaker(site.accepted, (1, 1)):
            continue  # QUORUM505 / QUORUM501 report those
        if _is_weaker(site.accepted, _CLASS_MINIMUM[site.kind.cls]):
            yield _site_violation(
                "QUORUM502",
                site,
                f"{site.kind.cls} certificate accepted at "
                f"{render_bound(site.accepted)}: certificates need 2f+1 votes "
                "so any two intersect in a correct replica",
            )


@flow_rule(
    "QUORUM503",
    "weak-prepare-certificate",
    "a prepare certificate is accepted below 2f matching prepares",
)
def quorum503_weak_prepare(fctx) -> Iterator[Violation]:
    for site in collect_sites(fctx):
        if site.kind.cls != "prepare":
            continue
        if site.accepted[0] == 0 or _is_weaker(site.accepted, (1, 1)):
            continue
        if _is_weaker(site.accepted, _CLASS_MINIMUM["prepare"]):
            yield _site_violation(
                "QUORUM503",
                site,
                f"prepare certificate accepted at {render_bound(site.accepted)}: "
                "needs 2f matching prepares (the pre-prepare supplies the "
                "2f+1st vote)",
            )


@flow_rule(
    "QUORUM505",
    "hard-coded-threshold",
    "a vote count is compared against a constant instead of a config.f bound",
)
def quorum505_constant(fctx) -> Iterator[Violation]:
    for site in collect_sites(fctx):
        if site.accepted[0] != 0:
            continue
        yield _site_violation(
            "QUORUM505",
            site,
            f"{site.kind.cls} votes compared against hard-coded "
            f"{render_bound(site.accepted)}: thresholds must derive from "
            "config.f (quorum/weak_quorum) or they break for other group sizes",
        )


@flow_rule(
    "QUORUM504",
    "unverified-certificate",
    "a dispatched message carries a checkpoint certificate its handler never counts",
)
def quorum504_blind_certificate(fctx) -> Iterator[Violation]:
    graph = fctx.callgraph
    messages = fctx.message_graph
    known = graph.class_names()
    sites = collect_sites(fctx)
    cert_sites = {
        site.func.qualname
        for site in sites
        if site.kind.cls == "checkpoint"
        and site.kind.cert_param
        and not _is_weaker(site.accepted, _CLASS_MINIMUM["checkpoint"])
    }
    for node in sorted(messages.nodes.values(), key=lambda n: n.name):
        if not node.consumers:
            continue
        carries_cert = any(
            cls in (_CERT_CLASS, "Checkpoint")
            for annotation in node.fields.values()
            for cls in mentioned_classes(annotation, known)
        )
        if not carries_cert or node.name == "Checkpoint":
            continue
        roots: List[str] = []
        arm_funcs: Set[str] = set()
        for consumer in node.consumers:
            arm_funcs.add(consumer.func.qualname)
            roots.extend(_arm_callees(consumer.func, consumer.arm))
        closure = graph.reachable_from(roots) | arm_funcs
        verified = bool(cert_sites & closure) or any(
            site.func.qualname in arm_funcs
            and site.kind.cls == "checkpoint"
            and site.kind.cert_param
            for site in sites
        )
        if verified:
            continue
        first = min(node.consumers, key=lambda c: (c.relpath, c.line))
        yield Violation(
            rule="QUORUM504",
            path=first.relpath,
            line=first.line,
            col=0,
            message=(
                f"`{node.name}` carries a checkpoint certificate but nothing "
                "reachable from its dispatch arm counts 2f+1 signed "
                "checkpoints from the certificate — a forged cert would be "
                "adopted blindly"
            ),
        )


def _arm_callees(func: FunctionInfo, arm: Optional[ast.If]) -> List[str]:
    """Project functions called lexically inside one dispatch arm body.

    A guard-style consumer (``if not isinstance(...): return``) has no
    dedicated arm body; the whole function is the handler.
    """
    if arm is None:
        return list(func.callee_names())
    call_ids: Set[int] = set()
    for stmt in arm.body:
        for inner in ast.walk(stmt):
            if isinstance(inner, ast.Call):
                call_ids.add(id(inner))
    callees: List[str] = []
    for site in func.calls:
        if id(site.node) in call_ids:
            callees.extend(site.callees)
    return callees
