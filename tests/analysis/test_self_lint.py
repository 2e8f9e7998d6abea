"""Self-lint: the repository must satisfy its own determinism invariants,
and the linter must catch the canonical regression (a fileserver swapping its
seeded RNG for wall-clock/unseeded randomness).

This is the CI tripwire the linter exists for: if a change introduces
unsuppressed nondeterminism into replica code, directly or through a helper
outside the deterministic scope, this test fails alongside
``python -m repro lint``.
"""

from pathlib import Path

from repro.analysis.config import load_config
from repro.analysis.engine import lint_project
from tests.analysis.util import rules_fired, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_is_lint_clean():
    config = load_config(project_root=REPO_ROOT)
    result = lint_project(config)
    rendered = "\n".join(v.render() for v in result.violations)
    assert result.clean, f"repository violates its own invariants:\n{rendered}"
    # The run must actually cover the tree (guard against an empty config
    # silently passing) and exercise the documented suppressions.
    assert result.files_checked > 50
    assert result.suppressions_used >= 2


def _mutated_fileserver(replacement: str) -> str:
    source = (REPO_ROOT / "src/repro/nfs/fileserver/memfs.py").read_text(
        encoding="utf-8"
    )
    seeded = "random.Random(seed)"
    assert seeded in source, "memfs no longer seeds its RNG; update this test"
    return source.replace(seeded, replacement)


def test_unseeded_rng_mutation_is_caught(tmp_path):
    result = run_lint(
        tmp_path,
        {"src/fileserver/memfs.py": _mutated_fileserver("random.Random()")},
        det_scope=["src/fileserver"],
    )
    assert "DET002" in rules_fired(result)
    violation = next(v for v in result.violations if v.rule == "DET002")
    assert violation.path == "src/fileserver/memfs.py"
    assert violation.line > 0


def test_wall_clock_seed_mutation_is_caught(tmp_path):
    mutated = "import time\n" + _mutated_fileserver(
        "random.Random(int(time.time()))"
    )
    result = run_lint(
        tmp_path,
        {"src/fileserver/memfs.py": mutated},
        det_scope=["src/fileserver"],
    )
    assert "DET001" in rules_fired(result)

