"""Stale-allow auditing: which suppressions ``repro lint`` may call stale.

Every rule runs in every invocation, so an ``allow[...]`` that matched
nothing is stale (LINT903) — except one naming a deterministic-scope rule in
a file outside that scope, where the rule never ran and cannot judge it.
"""

from tests.analysis.util import rules_fired, run_lint

POINTLESS = """
def pure():
    # repro: allow[%s] nothing nondeterministic here at all
    return 1
"""


def test_pointless_flow_allow_is_stale(tmp_path):
    result = run_lint(
        tmp_path, {"src/det/core.py": POINTLESS % "TAINT401"}, det_scope=["src/det"]
    )
    assert rules_fired(result) == ["LINT903"]
    assert "TAINT401" in result.violations[0].message


def test_det_allow_outside_the_scope_is_not_called_stale(tmp_path):
    files = {
        "src/det/core.py": POINTLESS % "DET003",
        "src/util/helpers.py": POINTLESS % "DET003",
    }
    result = run_lint(tmp_path, files, det_scope=["src/det"])
    assert [(v.rule, v.path) for v in result.violations] == [
        ("LINT903", "src/det/core.py")
    ]


def test_unknown_rule_id_still_flagged_by_both(tmp_path):
    """Inside the deterministic scope and outside it."""
    files = {
        "src/det/core.py": POINTLESS % "NOPE999",
        "src/util/helpers.py": POINTLESS % "NOPE999",
    }
    result = run_lint(tmp_path, files, det_scope=["src/det"])
    assert [(v.rule, v.path) for v in result.violations] == [
        ("LINT901", "src/det/core.py"),
        ("LINT901", "src/util/helpers.py"),
    ]
