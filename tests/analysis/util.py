"""Shared helpers for the linter tests: build a throwaway project tree and
lint it with an explicit config."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.config import LintConfig
from repro.analysis.engine import LintResult, lint_project


def make_config(
    tmp_path: Path,
    files: Dict[str, str],
    det_scope: Optional[List[str]] = None,
    disable: Optional[List[str]] = None,
) -> LintConfig:
    """Write ``files`` (relpath -> source) under ``tmp_path``; a config whose
    deterministic scope is ``det_scope`` (default: all of ``src``)."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return LintConfig(
        project_root=tmp_path,
        paths=sorted({relpath.split("/")[0] for relpath in files}),
        deterministic_scope=det_scope if det_scope is not None else ["src"],
        disable=disable if disable is not None else [],
    )


def run_lint(tmp_path: Path, files: Dict[str, str], **kwargs) -> LintResult:
    """Write ``files`` under ``tmp_path`` and lint them."""
    return lint_project(make_config(tmp_path, files, **kwargs))


def lint_det_source(tmp_path: Path, source: str, disable=None) -> LintResult:
    """Lint one module that sits inside the deterministic scope."""
    return run_lint(tmp_path, {"src/module.py": source}, disable=disable)


def rules_fired(result: LintResult) -> List[str]:
    return sorted({violation.rule for violation in result.violations})
