"""Inline suppressions, the meta rules that police them, and config loading
(both the tomllib path and the pre-3.11 fallback parser)."""

import textwrap

import pytest

from repro.analysis.cli import EXIT_USAGE, main
from repro.analysis.config import (
    LintConfig,
    _apply_table,
    _fallback_parse_lint_table,
    load_config,
)
from tests.analysis.util import lint_det_source, rules_fired

# -- suppressions -------------------------------------------------------------


def test_same_line_suppression(tmp_path):
    result = lint_det_source(
        tmp_path,
        "key = id(object())  # repro: allow[DET006] debug label only, never stored\n",
    )
    assert result.clean
    assert result.suppressions_used == 1


def test_preceding_line_suppression(tmp_path):
    result = lint_det_source(
        tmp_path,
        textwrap.dedent(
            """
            # repro: allow[DET006] debug label only, never stored
            key = id(object())
            """
        ),
    )
    assert result.clean


def test_multi_rule_suppression(tmp_path):
    result = lint_det_source(
        tmp_path,
        "import time\n"
        "x = (time.time(), hash('a'))  # repro: allow[DET001,DET008] test fixture data\n",
    )
    assert result.clean
    assert result.suppressions_used == 1


def test_suppression_only_covers_its_line(tmp_path):
    result = lint_det_source(
        tmp_path,
        "key = id(object())  # repro: allow[DET006] first one is fine\n"
        "other = id(object())\n",
    )
    assert rules_fired(result) == ["DET006"]
    assert result.violations[0].line == 2


def test_unknown_rule_id_is_violation(tmp_path):
    result = lint_det_source(
        tmp_path, "x = 1  # repro: allow[DET999] no such rule\n"
    )
    assert rules_fired(result) == ["LINT901"]


def test_missing_reason_does_not_suppress(tmp_path):
    result = lint_det_source(
        tmp_path, "key = id(object())  # repro: allow[DET006]\n"
    )
    fired = rules_fired(result)
    assert "DET006" in fired and "LINT902" in fired


def test_stale_suppression_is_violation(tmp_path):
    result = lint_det_source(
        tmp_path, "x = 1  # repro: allow[DET006] nothing here violates it\n"
    )
    assert rules_fired(result) == ["LINT903"]


def test_suppressing_disabled_rule_is_not_stale(tmp_path):
    result = lint_det_source(
        tmp_path,
        "key = id(object())  # repro: allow[DET006] reason\n",
        disable=["DET006"],
    )
    assert result.clean


def test_syntax_error_reported_not_crash(tmp_path):
    result = lint_det_source(tmp_path, "def broken(:\n")
    assert rules_fired(result) == ["LINT904"]


# -- config loading -----------------------------------------------------------

PYPROJECT = textwrap.dedent(
    """
    [project]
    name = "demo"

    [tool.repro.lint]
    paths = ["lib"]
    deterministic-scope = [
        "lib/replica",
        "lib/wrapper.py",
    ]
    exclude = ["lib/vendored"]
    disable = ["DET007"]
    """
)


def test_load_config_reads_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT, encoding="utf-8")
    config = load_config(project_root=tmp_path)
    assert config.paths == ["lib"]
    assert config.deterministic_scope == ["lib/replica", "lib/wrapper.py"]
    assert config.exclude == ["lib/vendored"]
    assert config.disable == ["DET007"]
    assert config.is_deterministic_scope("lib/replica/fs.py")
    assert not config.is_deterministic_scope("lib/client.py")
    assert config.is_excluded("lib/vendored/thing.py")


def test_load_config_defaults_without_block(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n", encoding="utf-8")
    config = load_config(project_root=tmp_path)
    assert config.paths == ["src"]
    assert config.is_deterministic_scope("src/repro/oodb/db.py")


def test_fallback_parser_matches_tomllib():
    table = _fallback_parse_lint_table(PYPROJECT)
    assert table["paths"] == ["lib"]
    assert table["deterministic-scope"] == ["lib/replica", "lib/wrapper.py"]
    assert table["disable"] == ["DET007"]


def test_fallback_parser_ignores_other_tables():
    table = _fallback_parse_lint_table(
        "[tool.other]\npaths = ['nope']\n[tool.repro.lint]\npaths = ['yes']\n"
    )
    assert table["paths"] == ["yes"]


@pytest.mark.parametrize("key", ["deterministic_scope", "quorum-paths"])
def test_unknown_key_is_an_error_naming_it_and_the_accepted_ones(tmp_path, key, capsys):
    """A misspelt key must not leave the DET rules on the built-in default
    scope without a word; a retired one tells a downstream config it is gone."""
    text = f'[tool.repro.lint]\npaths = ["lib"]\n{key} = ["lib/replica"]\n'
    (tmp_path / "pyproject.toml").write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"no key '{key}'.*deterministic-scope"):
        load_config(project_root=tmp_path)
    with pytest.raises(ValueError, match=f"no key '{key}'.*deterministic-scope"):
        _apply_table(
            LintConfig(project_root=tmp_path),
            _fallback_parse_lint_table(text),
            tmp_path / "pyproject.toml",
        )
    assert main(["--root", str(tmp_path)]) == EXIT_USAGE
    assert key in capsys.readouterr().err


def test_scope_matching_is_prefix_safe():
    config = LintConfig(project_root=None, deterministic_scope=["src/repro/base"])
    assert config.is_deterministic_scope("src/repro/base/wrapper.py")
    assert not config.is_deterministic_scope("src/repro/basement/wrapper.py")
