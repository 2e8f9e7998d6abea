"""The lint engine: collect files, parse, run rules, apply suppressions.

Suppression syntax (one line)::

    self._key = hash(raw)  # repro: allow[DET008] client-side cache key only

or, on its own line, covering the next statement line::

    # repro: allow[DET002,DET003] fuzzing harness, not replica code
    value = random.random()

Every suppression must carry a reason; unknown rule ids, missing reasons,
and suppressions that match nothing are themselves violations (LINT901–903),
so stale annotations cannot accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis import determinism, protocol  # noqa: F401  (rule registration)
from repro.analysis import flow  # registers the TAINT rules
from repro.analysis.config import LintConfig
from repro.analysis.registry import (
    FileContext,
    ProjectIndex,
    all_rules,
    is_known_rule,
)
from repro.analysis.violations import Suppression, Violation

_SUPPRESSION = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_,\s]*)\]\s*(?P<reason>.*)$"
)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation]
    files_checked: int
    suppressions_used: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


def collect_files(config: LintConfig, paths: Optional[List[str]] = None) -> List[Path]:
    """Python files under the configured (or explicitly given) paths."""
    roots = paths if paths else config.paths
    files: List[Path] = []
    seen: Set[Path] = set()
    for entry in roots:
        base = Path(entry)
        if not base.is_absolute():
            base = config.project_root / base
        if base.is_file():
            candidates: Iterable[Path] = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            raise FileNotFoundError(f"lint path does not exist: {entry}")
        for path in candidates:
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            relpath = _relpath(resolved, config.project_root)
            if config.is_excluded(relpath):
                continue
            files.append(resolved)
    return files


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_file(path: Path, config: LintConfig) -> Optional[FileContext]:
    """Parse one module; returns None when the source does not parse (the
    caller emits LINT904)."""
    source = path.read_text(encoding="utf-8")
    relpath = _relpath(path, config.project_root)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    ctx = FileContext(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        config=config,
        deterministic=config.is_deterministic_scope(relpath),
        suppressions=_extract_suppressions(source, relpath),
    )
    _collect_imports(ctx)
    return ctx


def _collect_imports(ctx: FileContext) -> None:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                # `import a.b` binds `a`; `import a.b as c` binds `c` -> a.b
                target = alias.name if alias.asname else alias.name.split(".")[0]
                ctx.module_aliases[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                ctx.from_imports[bound] = (node.module, alias.name)


def _extract_suppressions(source: str, relpath: str) -> List[Suppression]:
    suppressions: List[Suppression] = []
    comment_only_lines: Dict[int, Suppression] = {}
    code_lines: Set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return []
    for token in tokens:
        if token.type == tokenize.COMMENT:
            match = _SUPPRESSION.search(token.string)
            if match is None:
                continue
            rules = [r.strip() for r in match.group("rules").split(",") if r.strip()]
            line = token.start[0]
            stripped_prefix = token.line[: token.start[1]].strip()
            suppression = Suppression(
                rules=rules,
                reason=match.group("reason").strip(),
                line=line,
                target_line=line,
                path=relpath,
            )
            suppressions.append(suppression)
            if not stripped_prefix:  # comment has the line to itself
                comment_only_lines[line] = suppression
        elif token.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
            tokenize.ENCODING,
        ):
            code_lines.add(token.start[0])
    # A standalone comment suppresses the next code line.
    for line, suppression in comment_only_lines.items():
        next_code = [code_line for code_line in code_lines if code_line > line]
        if next_code:
            suppression.target_line = min(next_code)
    return suppressions


def lint_project(
    config: LintConfig, paths: Optional[List[str]] = None
) -> LintResult:
    """Run every rule that is not disabled: per-file, project and flow."""
    violations: List[Violation] = []
    contexts: List[FileContext] = []
    files = collect_files(config, paths)
    disabled = set(config.disable)

    for path in files:
        ctx = parse_file(path, config)
        if ctx is None:
            violations.append(
                Violation(
                    rule="LINT904",
                    path=_relpath(path, config.project_root),
                    line=1,
                    col=0,
                    message="file does not parse; fix the syntax error first",
                )
            )
            continue
        contexts.append(ctx)

    index = ProjectIndex(config=config, files=contexts)
    flow_ctx = flow.FlowContext(index)  # builds its call graph on first use
    for rule in all_rules():
        if rule.id in disabled:
            continue
        if rule.kind == "flow":
            violations.extend(rule.check(flow_ctx))
        elif rule.kind == "project":
            violations.extend(rule.check(index))
        else:
            for ctx in contexts:
                if rule.deterministic_only and not ctx.deterministic:
                    continue
                violations.extend(rule.check(ctx))

    det_only_rules = {rule.id for rule in all_rules() if rule.deterministic_only}
    violations, used = _apply_suppressions(
        violations, contexts, disabled, det_only_rules
    )
    violations.sort(key=Violation.sort_key)
    return LintResult(
        violations=violations, files_checked=len(files), suppressions_used=used
    )


def _apply_suppressions(
    violations: List[Violation],
    contexts: List[FileContext],
    disabled: Set[str],
    det_only_rules: Set[str],
):
    by_path: Dict[str, List[Suppression]] = {}
    for ctx in contexts:
        if ctx.suppressions:
            by_path[ctx.relpath] = ctx.suppressions

    kept: List[Violation] = []
    for violation in violations:
        covering = None
        for suppression in by_path.get(violation.path, []):
            if suppression.covers(violation):
                covering = suppression
                break
        if covering is not None and covering.reason:
            covering.used = True
        else:
            kept.append(violation)

    used = 0
    for ctx in contexts:
        for suppression in ctx.suppressions:
            for rule_id in suppression.rules:
                if not is_known_rule(rule_id) and "LINT901" not in disabled:
                    kept.append(
                        Violation(
                            rule="LINT901",
                            path=ctx.relpath,
                            line=suppression.line,
                            col=0,
                            message=f"suppression names unknown rule id {rule_id!r}",
                        )
                    )
            if not suppression.rules and "LINT901" not in disabled:
                kept.append(
                    Violation(
                        rule="LINT901",
                        path=ctx.relpath,
                        line=suppression.line,
                        col=0,
                        message="suppression lists no rule ids",
                    )
                )
            if not suppression.reason and "LINT902" not in disabled:
                kept.append(
                    Violation(
                        rule="LINT902",
                        path=ctx.relpath,
                        line=suppression.line,
                        col=0,
                        message="suppression has no reason; say why the "
                        "nondeterminism is safe here",
                    )
                )
            if suppression.used:
                used += 1
            elif (
                suppression.rules
                and suppression.reason
                and all(is_known_rule(rule_id) for rule_id in suppression.rules)
                and not set(suppression.rules) & disabled
                # Rules gated on deterministic scope never ran *on this file*
                # if it is outside the scope: an allow[DET003] marking
                # accepted nondeterminism at its source (honoured by the
                # taint pass) must not be called stale by a rule that cannot
                # judge it.
                and (ctx.deterministic or not set(suppression.rules) & det_only_rules)
                and "LINT903" not in disabled
            ):
                kept.append(
                    Violation(
                        rule="LINT903",
                        path=ctx.relpath,
                        line=suppression.line,
                        col=0,
                        message=f"suppression for {', '.join(suppression.rules)} "
                        "matched no violation; delete the stale allow",
                    )
                )
    return kept, used
