"""CLI front end: stable exit codes and report formats."""

import json
import re
import textwrap
from pathlib import Path

from repro.analysis.cli import EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS, main


def write_project(tmp_path, source):
    (tmp_path / "pyproject.toml").write_text(
        textwrap.dedent(
            """
            [tool.repro.lint]
            paths = ["src"]
            deterministic-scope = ["src"]
            """
        ),
        encoding="utf-8",
    )
    module = tmp_path / "src" / "module.py"
    module.parent.mkdir(parents=True)
    module.write_text(source, encoding="utf-8")


def test_exit_zero_on_clean_project(tmp_path, capsys):
    write_project(tmp_path, "VALUE = 1\n")
    assert main(["--root", str(tmp_path)]) == EXIT_CLEAN
    assert "clean" in capsys.readouterr().out


def test_exit_one_with_file_line_diagnostic(tmp_path, capsys):
    write_project(tmp_path, "import time\nstamp = time.time()\n")
    assert main(["--root", str(tmp_path)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "src/module.py:2:" in out and "DET001" in out


def test_json_format_is_versioned_and_parseable(tmp_path, capsys):
    write_project(tmp_path, "import time\nstamp = time.time()\n")
    assert main(["--root", str(tmp_path), "--format", "json"]) == EXIT_VIOLATIONS
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert document["clean"] is False
    assert document["violations"][0]["rule"] == "DET001"
    assert document["violations"][0]["line"] == 2


def test_exit_two_on_missing_path(tmp_path, capsys):
    write_project(tmp_path, "VALUE = 1\n")
    assert main(["--root", str(tmp_path), "no/such/dir"]) == EXIT_USAGE


def test_exit_two_on_bad_flag(tmp_path, capsys):
    assert main(["--format", "yaml"]) == EXIT_USAGE


def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule_id in ("DET001", "PROTO103", "TAINT401", "TAINT402", "LINT903"):
        assert rule_id in out


def test_listed_rules_and_documented_rules_agree(capsys):
    """Every id ``--list-rules`` prints has a ``### <ID>`` section in
    docs/determinism.md and every section names a rule that exists, so a
    deleted rule cannot leave a stale section nor a new one go undocumented.
    A heading such as ``TAINT4xx`` covers the whole family."""
    assert main(["--list-rules"]) == EXIT_CLEAN
    listed = set(re.findall(r"^  ([A-Z]+\d{3}) ", capsys.readouterr().out, re.M))
    docs = Path(__file__).resolve().parents[2] / "docs" / "determinism.md"
    headings = set(re.findall(r"^### ([A-Z]+\d(?:\d\d|xx)) ", docs.read_text("utf-8"), re.M))
    assert listed and headings

    def covers(heading, rule_id):
        return rule_id.startswith(heading[:-2]) if heading.endswith("xx") else heading == rule_id

    assert [r for r in sorted(listed) if not any(covers(h, r) for h in headings)] == []
    assert [h for h in sorted(headings) if not any(covers(h, r) for r in listed)] == []


def test_explicit_path_narrows_the_run(tmp_path, capsys):
    write_project(tmp_path, "import time\nstamp = time.time()\n")
    clean = tmp_path / "src" / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    code = main(["--root", str(tmp_path), "src/clean.py"])
    assert code == EXIT_CLEAN
