"""TAINT4xx: nondeterminism laundered through helpers and attributes,
reported by the same ``lint_project`` run as the per-file rules."""

from tests.analysis.util import rules_fired, run_lint

HELPERS = """
import uuid


def fresh_id():
    return uuid.uuid4().hex


def wrapper():
    return fresh_id()


class Registry:
    def __init__(self):
        self.token = None
        self.count = 0

    def refresh(self):
        self.token = fresh_id()
"""

SINK = """
from util.helpers import wrapper, Registry


def apply_op(registry: Registry):
    handle = wrapper()
    return handle
"""


def test_taint401_reports_laundered_call_with_chain(tmp_path):
    result = run_lint(
        tmp_path,
        {"src/util/helpers.py": HELPERS, "src/det/core.py": SINK},
        det_scope=["src/det"],
    )
    assert rules_fired(result) == ["TAINT401"]
    violation = result.violations[0]
    assert violation.path == "src/det/core.py"
    # the diagnostic carries the full source→sink chain down to the primitive
    assert "wrapper" in violation.message
    assert "fresh_id" in violation.message
    assert "uuid.uuid4" in violation.message
    assert "src/util/helpers.py" in violation.message


def test_taint402_reports_attribute_laundering(tmp_path):
    reader = """
from util.helpers import Registry


def read_state(registry: Registry):
    return registry.token
"""
    result = run_lint(
        tmp_path,
        {"src/util/helpers.py": HELPERS, "src/det/reader.py": reader},
        det_scope=["src/det"],
    )
    assert rules_fired(result) == ["TAINT402"]
    violation = result.violations[0]
    assert violation.path == "src/det/reader.py"
    assert "Registry.token" in violation.message
    assert "uuid.uuid4" in violation.message


def test_untainted_attribute_reads_are_fine(tmp_path):
    reader = """
from util.helpers import Registry


def read_count(registry: Registry):
    return registry.count
"""
    result = run_lint(
        tmp_path,
        {"src/util/helpers.py": HELPERS, "src/det/reader.py": reader},
        det_scope=["src/det"],
    )
    assert result.clean, [v.render() for v in result.violations]


def test_suppressed_primitive_does_not_seed_taint(tmp_path):
    helpers = """
import uuid


def fresh_id():
    # repro: allow[DET003] test fixture ids, never fed to replicated state
    return uuid.uuid4().hex
"""
    result = run_lint(
        tmp_path,
        {
            "src/util/helpers.py": helpers,
            "src/det/core.py": """
from util.helpers import fresh_id


def apply_op():
    return fresh_id()
""",
        },
        det_scope=["src/det"],
    )
    # The allow is on the primitive's own line (outside det scope), so the
    # nondeterminism is accepted at the source: no taint, and the allow is
    # counted as used rather than stale.
    assert result.clean, [v.render() for v in result.violations]
    assert result.suppressions_used == 1


def test_taint401_suppressible_at_the_sink(tmp_path):
    sink = """
from util.helpers import wrapper


def apply_op():
    handle = wrapper()  # repro: allow[TAINT401] bootstrap only, replayed verbatim
    return handle
"""
    result = run_lint(
        tmp_path,
        {"src/util/helpers.py": HELPERS, "src/det/core.py": sink},
        det_scope=["src/det"],
    )
    assert result.clean, [v.render() for v in result.violations]
    assert result.suppressions_used == 1


def test_in_scope_primitive_is_det_rule_not_taint(tmp_path):
    # A primitive called directly inside the scope is the per-file rules' job;
    # the flow pass must not double-report it.
    result = run_lint(
        tmp_path,
        {
            "src/det/core.py": """
import uuid


def apply_op():
    return uuid.uuid4().hex
"""
        },
        det_scope=["src/det"],
    )
    assert rules_fired(result) == ["DET003"]
