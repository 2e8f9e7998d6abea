"""Linter configuration: defaults plus a ``[tool.repro.lint]`` block in
``pyproject.toml``.

The defaults encode the repository's own layout (which directories hold
deterministic-execution code), so the linter runs correctly with no
configuration at all; the pyproject block exists so forks and downstream
wrappers can re-scope it.  A key the block does not define is an error, not
a default silently kept.

``tomllib`` only exists on Python 3.11+; on older interpreters a minimal
fallback parser handles the subset this block uses (one table, string and
list-of-string values), so the linter stays dependency-free across the
supported versions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Directories/files whose code executes inside a replica and therefore must
#: be deterministic (paper section 2.2).  Relative to the project root.
DEFAULT_DETERMINISTIC_SCOPE = [
    "src/repro/nfs/fileserver",
    "src/repro/nfs/wrapper.py",
    "src/repro/oodb",
    "src/repro/base",
    "src/repro/bft/service.py",
]

DEFAULT_PATHS = ["src"]

#: The ``[tool.repro.lint]`` keys, each a list of strings; the
#: :class:`LintConfig` attribute is the key with ``-`` as ``_``.
_KEYS = ("paths", "deterministic-scope", "exclude", "disable")


@dataclass
class LintConfig:
    """Resolved configuration for one lint run."""

    project_root: Path
    paths: List[str] = field(default_factory=lambda: list(DEFAULT_PATHS))
    deterministic_scope: List[str] = field(
        default_factory=lambda: list(DEFAULT_DETERMINISTIC_SCOPE)
    )
    exclude: List[str] = field(default_factory=list)
    disable: List[str] = field(default_factory=list)

    def is_deterministic_scope(self, relpath: str) -> bool:
        return _matches_any(relpath, self.deterministic_scope)

    def is_excluded(self, relpath: str) -> bool:
        return _matches_any(relpath, self.exclude)


def _matches_any(relpath: str, entries: List[str]) -> bool:
    for entry in entries:
        entry = entry.rstrip("/")
        if relpath == entry or relpath.startswith(entry + "/"):
            return True
    return False


def find_project_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor (inclusive) containing ``pyproject.toml``."""
    current = (start or Path.cwd()).resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def load_config(
    project_root: Optional[Path] = None, pyproject: Optional[Path] = None
) -> LintConfig:
    """Build a :class:`LintConfig` from defaults plus pyproject overrides."""
    root = (project_root or find_project_root()).resolve()
    config = LintConfig(project_root=root)
    toml_path = pyproject if pyproject is not None else root / "pyproject.toml"
    if toml_path.is_file():
        table = _read_lint_table(toml_path)
        _apply_table(config, table, toml_path)
    return config


def _apply_table(config: LintConfig, table: Dict[str, object], source: Path) -> None:
    for key, value in table.items():
        if key not in _KEYS:
            # `deterministic_scope = [...]` must not leave the DET rules on
            # the short built-in default without a word.
            raise ValueError(
                f"{source}: [tool.repro.lint] has no key {key!r} "
                f"(accepted: {', '.join(_KEYS)})"
            )
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise ValueError(f"{source}: [tool.repro.lint] {key} must be a list of strings")
        setattr(config, key.replace("-", "_"), list(value))


def _read_lint_table(toml_path: Path) -> Dict[str, object]:
    text = toml_path.read_text(encoding="utf-8")
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        return _fallback_parse_lint_table(text)
    data = tomllib.loads(text)
    tool = data.get("tool", {})
    if not isinstance(tool, dict):
        return {}
    repro = tool.get("repro", {})
    if not isinstance(repro, dict):
        return {}
    lint = repro.get("lint", {})
    return lint if isinstance(lint, dict) else {}


_TABLE_HEADER = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_KEY_VALUE = re.compile(r"^\s*(?P<key>[A-Za-z0-9_.-]+)\s*=\s*(?P<value>.+?)\s*$")


def _fallback_parse_lint_table(text: str) -> Dict[str, object]:
    """Parse just the ``[tool.repro.lint]`` table on Python < 3.11.

    Supports the subset the config block uses: bare string values and
    (possibly multi-line) lists of strings.  Anything fancier should run on
    an interpreter with ``tomllib``.
    """
    table: Dict[str, object] = {}
    in_table = False
    pending_key: Optional[str] = None
    pending_chunks: List[str] = []

    def finish_pending() -> None:
        nonlocal pending_key, pending_chunks
        if pending_key is not None:
            table[pending_key] = _parse_toml_value(" ".join(pending_chunks))
            pending_key, pending_chunks = None, []

    for raw_line in text.splitlines():
        line = raw_line.strip()
        header = _TABLE_HEADER.match(raw_line)
        if header is not None:
            finish_pending()
            in_table = header.group("name").strip() == "tool.repro.lint"
            continue
        if not in_table or not line or line.startswith("#"):
            continue
        if pending_key is not None:
            pending_chunks.append(line)
            if _list_is_closed(" ".join(pending_chunks)):
                finish_pending()
            continue
        kv = _KEY_VALUE.match(raw_line)
        if kv is None:
            continue
        key, value = kv.group("key"), kv.group("value")
        if value.startswith("[") and not _list_is_closed(value):
            pending_key, pending_chunks = key, [value]
        else:
            table[key] = _parse_toml_value(value)
    finish_pending()
    return table


def _list_is_closed(value: str) -> bool:
    depth = 0
    in_string: Optional[str] = None
    for char in value:
        if in_string is not None:
            if char == in_string:
                in_string = None
        elif char in "\"'":
            in_string = char
        elif char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
    return depth == 0 and in_string is None


def _parse_toml_value(value: str) -> object:
    value = value.strip()
    if value.startswith("[") and value.endswith("]"):
        return [
            _parse_toml_scalar(item)
            for item in _split_toml_list(value[1:-1])
            if item.strip()
        ]
    return _parse_toml_scalar(value)


def _split_toml_list(body: str) -> List[str]:
    items: List[str] = []
    current: List[str] = []
    in_string: Optional[str] = None
    for char in body:
        if in_string is not None:
            current.append(char)
            if char == in_string:
                in_string = None
        elif char in "\"'":
            in_string = char
            current.append(char)
        elif char == ",":
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        items.append("".join(current))
    return items


def _parse_toml_scalar(value: str) -> object:
    value = value.strip()
    if len(value) >= 2 and value[0] in "\"'" and value[-1] == value[0]:
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    return value
