"""``repro lint`` — command-line front end.

Exit codes are stable and meant for CI:

* ``0`` — no violations,
* ``1`` — at least one violation,
* ``2`` — usage or configuration error (bad flag, missing path, broken
  config block).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.config import find_project_root, load_config
from repro.analysis.engine import lint_project
from repro.analysis.reporters import render_json, render_rule_list, render_text

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism linter: per-file DET rules closed over the "
        "call graph by the taint pass (see docs/determinism.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the configured paths, "
        "normally src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root (default: nearest ancestor with a pyproject.toml)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(exc.code or 0)

    if options.list_rules:
        print(render_rule_list())
        return EXIT_CLEAN

    try:
        root = (options.root or find_project_root()).resolve()
        config = load_config(project_root=root)
        result = lint_project(config, paths=options.paths or None)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if options.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return EXIT_CLEAN if result.clean else EXIT_VIOLATIONS


if __name__ == "__main__":
    raise SystemExit(main())
