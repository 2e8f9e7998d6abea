"""Heuristic intra-project call graph for the flow rules.

Static Python call resolution is undecidable in general; this builder aims at
the idioms this codebase actually uses (and that the flow rules need):

* top-level functions called by bare name or via ``from x import f``;
* ``self.method()`` resolved through the enclosing class and its by-name
  base-class chain;
* method calls through *typed* receivers: parameter annotations (including
  string annotations like ``replica: "Replica"``), ``self.x = SomeClass(...)``
  constructor assignments, ``self.x: SomeClass`` attribute annotations, and
  locals assigned from any of those;
* constructor calls (``Prepare(...)``) resolved to the class, so message
  construction sites and ``__init__`` edges are visible.

Unresolvable calls are kept with their dotted external name when the import
table can produce one (``time.time``, ``random.Random`` …) — that is what the
taint pass classifies as nondeterminism primitives.  The graph is a sound
*under*-approximation of the real call relation: a missing edge can hide a
finding, but a reported source→sink chain always corresponds to real calls in
the source.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.registry import FileContext, ProjectIndex

#: typing constructs that may wrap a class name in an annotation without the
#: annotation describing an *instance* of that class.
_CONTAINER_TOKENS = {
    "List",
    "Dict",
    "Set",
    "FrozenSet",
    "Tuple",
    "Iterable",
    "Iterator",
    "Sequence",
    "Mapping",
    "Callable",
    "Deque",
    "DefaultDict",
    "Type",
    "Union",
}

#: ``Optional["X"]`` / ``'X'`` / ``X`` — annotations denoting a single
#: instance of X (possibly absent).  Anything else (List[X], Dict[str, X]) is
#: a container: its *elements* are X, the annotated value is not.
_BARE_TYPE = re.compile(
    r"^(?:Optional\[)?[\'\"]?([A-Za-z_][A-Za-z0-9_]*)[\'\"]?\]?$"
)


def annotation_text(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        return None
    return text.strip()


def instance_class_of(text: Optional[str], known: Set[str]) -> Optional[str]:
    """Class name an annotation denotes an *instance* of, if any."""
    if not text:
        return None
    match = _BARE_TYPE.match(text)
    if match is None:
        return None
    token = match.group(1)
    if token in known and token not in _CONTAINER_TOKENS:
        return token
    return None


@dataclass
class CallSite:
    """One ``ast.Call`` with whatever resolution succeeded."""

    node: ast.Call
    callees: List[str] = field(default_factory=list)  # FunctionInfo qualnames
    dotted: Optional[str] = None  # external dotted name (primitives)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # module.Class.name or module.name
    module: str
    relpath: str
    name: str
    class_name: Optional[str]
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: FileContext
    calls: List[CallSite] = field(default_factory=list)
    # parameter name -> instance class (project classes only)
    param_types: Dict[str, str] = field(default_factory=dict)
    return_annotation: Optional[str] = None

    @property
    def deterministic(self) -> bool:
        return self.ctx.deterministic

    def callee_names(self) -> Iterator[str]:
        for site in self.calls:
            for callee in site.callees:
                yield callee


@dataclass
class ClassInfo:
    """One class definition with resolved attribute types."""

    qualname: str
    name: str
    module: str
    relpath: str
    node: ast.ClassDef
    ctx: FileContext
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    # self.x -> instance class name (project classes only)
    attr_types: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Functions, classes, and resolved call edges for one project."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self._build()

    # -- lookups ---------------------------------------------------------------

    def class_named(self, name: str, module: Optional[str] = None) -> Optional[ClassInfo]:
        candidates = self.classes.get(name, [])
        if module is not None:
            for info in candidates:
                if info.module == module:
                    return info
        return candidates[0] if candidates else None

    def class_names(self) -> Set[str]:
        return set(self.classes)

    def find_method(self, class_name: str, method: str) -> Optional[FunctionInfo]:
        """Method lookup through the by-name base chain (cycle-safe)."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for info in self.classes.get(current, []):
                if method in info.methods:
                    return info.methods[method]
                queue.extend(info.bases)
        return None

    def attr_type(self, class_name: str, attr: str) -> Optional[str]:
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for info in self.classes.get(current, []):
                if attr in info.attr_types:
                    return info.attr_types[attr]
                queue.extend(info.bases)
        return None

    def edges(self) -> Iterator[Tuple[str, str]]:
        for func in self.functions.values():
            seen: Set[str] = set()
            for callee in func.callee_names():
                if callee not in seen:
                    seen.add(callee)
                    yield func.qualname, callee

    def callers_of(self) -> Dict[str, List[str]]:
        reverse: Dict[str, List[str]] = {}
        for caller, callee in self.edges():
            reverse.setdefault(callee, []).append(caller)
        return reverse

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        for ctx in self.index.files:
            module = module_name(ctx.relpath)
            self._index_module(ctx, module)
        known = self.class_names()
        for infos in self.classes.values():
            for cls in infos:
                self._collect_class_annotations(cls, known)
        # Attribute types can reference classes whose own annotations are
        # collected above, so constructor-assignment resolution runs after.
        for infos in self.classes.values():
            for cls in infos:
                self._collect_attr_assignments(cls, known)
        for func in list(self.functions.values()):
            self._collect_param_types(func, known)
        for func in list(self.functions.values()):
            self._resolve_calls(func)

    def _index_module(self, ctx: FileContext, module: str) -> None:
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, ctx, module, class_name=None)
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{module}.{node.name}",
                    name=node.name,
                    module=module,
                    relpath=ctx.relpath,
                    node=node,
                    ctx=ctx,
                    bases=[base for base in (_base_name(b) for b in node.bases) if base],
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        func = self._add_function(item, ctx, module, class_name=node.name)
                        info.methods[item.name] = func
                self.classes.setdefault(node.name, []).append(info)

    def _add_function(
        self,
        node: ast.AST,
        ctx: FileContext,
        module: str,
        class_name: Optional[str],
    ) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        qualname = (
            f"{module}.{class_name}.{name}" if class_name else f"{module}.{name}"
        )
        info = FunctionInfo(
            qualname=qualname,
            module=module,
            relpath=ctx.relpath,
            name=name,
            class_name=class_name,
            node=node,
            ctx=ctx,
        )
        self.functions[qualname] = info
        return info

    def _collect_class_annotations(self, cls: ClassInfo, known: Set[str]) -> None:
        # Dataclass-style field annotations in the class body.
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                instance = instance_class_of(annotation_text(item.annotation), known)
                if instance:
                    cls.attr_types[item.target.id] = instance
        # ``self.x: T = ...`` annotations inside methods.
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                ):
                    instance = instance_class_of(annotation_text(node.annotation), known)
                    if instance:
                        cls.attr_types.setdefault(node.target.attr, instance)

    def _collect_attr_assignments(self, cls: ClassInfo, known: Set[str]) -> None:
        for method in cls.methods.values():
            params = _param_annotation_map(method.node, known)
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        resolved = self._constructed_class(node.value, method.ctx)
                        if resolved is None and isinstance(node.value, ast.Name):
                            resolved = params.get(node.value.id)
                        if resolved:
                            cls.attr_types.setdefault(target.attr, resolved)

    def _collect_param_types(self, func: FunctionInfo, known: Set[str]) -> None:
        args = func.node.args  # type: ignore[attr-defined]
        func.param_types.update(_param_annotation_map(func.node, known))
        if func.class_name and args.args and args.args[0].arg == "self":
            func.param_types["self"] = func.class_name
        returns = getattr(func.node, "returns", None)
        func.return_annotation = annotation_text(returns)

    # -- expression typing -----------------------------------------------------

    def _constructed_class(self, expr: ast.AST, ctx: FileContext) -> Optional[str]:
        """Class name when ``expr`` is a direct project-class constructor call."""
        if not isinstance(expr, ast.Call):
            return None
        dotted = ctx.resolve_call(expr)
        if dotted is None:
            return None
        tail = dotted.rsplit(".", 1)[-1]
        if tail not in self.classes:
            return None
        module = dotted.rsplit(".", 1)[0] if "." in dotted else module_name(ctx.relpath)
        info = self.class_named(tail, module) or self.class_named(tail)
        return info.name if info else None

    def local_types(self, func: FunctionInfo) -> Dict[str, str]:
        """Name -> instance class for params and simple local assignments."""
        known = self.class_names()
        types: Dict[str, str] = dict(func.param_types)
        # Two passes: a local assigned from another local settles on pass 2.
        for _ in range(2):
            for node in ast.walk(func.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        inferred = self.infer_type(node.value, func, types)
                        if inferred:
                            types.setdefault(target.id, inferred)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    instance = instance_class_of(
                        annotation_text(node.annotation), known
                    )
                    if instance:
                        types.setdefault(node.target.id, instance)
        return types

    def infer_type(
        self,
        expr: ast.AST,
        func: FunctionInfo,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Instance class of an expression, or None."""
        scope = local_types if local_types is not None else func.param_types
        known = self.class_names()
        if isinstance(expr, ast.Name):
            return scope.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer_type(expr.value, func, scope)
            if base is not None:
                return self.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            constructed = self._constructed_class(expr, func.ctx)
            if constructed:
                return constructed
            dotted = func.ctx.resolve_call(expr)
            if dotted is not None:
                # `made = make()` where `def make() -> Widget`
                for hit in self._lookup_dotted(dotted, func.module):
                    target = self.functions.get(hit)
                    if target is not None and target.name != "__init__":
                        instance = instance_class_of(target.return_annotation, known)
                        if instance:
                            return instance
            if isinstance(expr.func, ast.Attribute):
                receiver = self.infer_type(expr.func.value, func, scope)
                if receiver is not None:
                    method = self.find_method(receiver, expr.func.attr)
                    if method is not None:
                        return instance_class_of(method.return_annotation, known)
            return None
        return None

    # -- call resolution -------------------------------------------------------

    def _resolve_calls(self, func: FunctionInfo) -> None:
        local_types = self.local_types(func)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            site = CallSite(node=node)
            dotted = func.ctx.resolve_call(node)
            if dotted is not None:
                hits = self._lookup_dotted(dotted, func.module)
                if hits:
                    site.callees.extend(hits)
                else:
                    site.dotted = dotted
            if not site.callees and isinstance(node.func, ast.Attribute):
                receiver = self.infer_type(node.func.value, func, local_types)
                if receiver is not None:
                    method = self.find_method(receiver, node.func.attr)
                    if method is not None:
                        site.callees.append(method.qualname)
            func.calls.append(site)

    def _lookup_dotted(self, dotted: str, module: str) -> List[str]:
        """Project functions a dotted (or bare) callee name denotes."""
        hits: List[str] = []
        if dotted in self.functions:
            hits.append(dotted)
        elif "." in dotted:
            head, tail = dotted.rsplit(".", 1)
            cls = self.class_named(tail, head)
            if cls is not None:
                init = cls.methods.get("__init__")
                if init is not None:
                    hits.append(init.qualname)
                else:
                    hits.append(cls.qualname)  # classes without __init__
        else:
            same_module = f"{module}.{dotted}"
            if same_module in self.functions:
                hits.append(same_module)
            else:
                cls = self.class_named(dotted, module)
                if cls is not None and cls.module == module:
                    init = cls.methods.get("__init__")
                    hits.append(init.qualname if init else cls.qualname)
        # Keep only entries that are real functions: a class qualname standing
        # in for a missing __init__ has no body to traverse.
        return [h for h in hits if h in self.functions]


def _param_annotation_map(node: ast.AST, known: Set[str]) -> Dict[str, str]:
    """Parameter name -> instance class, from bare annotations."""
    args = node.args  # type: ignore[attr-defined]
    result: Dict[str, str] = {}
    for arg in list(args.args) + list(args.kwonlyargs):
        instance = instance_class_of(annotation_text(arg.annotation), known)
        if instance:
            result[arg.arg] = instance
    return result


def module_name(relpath: str) -> str:
    """Dotted module path for a project-relative file path."""
    parts = relpath.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts)


def _base_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def build_callgraph(index: ProjectIndex) -> CallGraph:
    return CallGraph(index)
