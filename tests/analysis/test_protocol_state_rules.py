"""PROTO103 against small synthetic services."""

import textwrap

from tests.analysis.util import run_lint, rules_fired


def test_proto103_execute_without_nondet(tmp_path):
    source = textwrap.dedent(
        """
        class BrokenMachine(StateMachine):
            def execute(self, op, client_id, read_only=False):
                return b""
        """
    )
    result = run_lint(tmp_path, {"src/svc.py": source}, det_scope=[])
    assert "PROTO103" in rules_fired(result)


def test_proto103_accepts_timestamp_micros(tmp_path):
    source = textwrap.dedent(
        """
        class GoodWrapper(ConformanceWrapper):
            def execute(self, op, client_id, timestamp_micros, read_only=False):
                return b""

            def get_obj(self, index):
                return b""

            def put_objs(self, objects):
                pass
        """
    )
    result = run_lint(tmp_path, {"src/svc.py": source}, det_scope=[])
    assert result.clean


def test_unrelated_classes_ignored(tmp_path):
    source = textwrap.dedent(
        """
        class Plain:
            def execute(self, op):
                return op
        """
    )
    result = run_lint(tmp_path, {"src/svc.py": source}, det_scope=[])
    assert result.clean
