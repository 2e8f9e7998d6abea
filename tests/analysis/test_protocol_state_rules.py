"""PROTO1xx / STATE2xx rules against small synthetic protocol trees."""

import textwrap

from tests.analysis.util import run_lint, rules_fired

MESSAGES_OK = textwrap.dedent(
    """
    class Message:
        pass

    class Ping(Message):
        WIRE = Wire("PING", {})

    class Pong(Message):
        WIRE = Wire("PONG", {})
    """
)

DISPATCH_OK = textwrap.dedent(
    """
    def on_message(message):
        if isinstance(message, Ping):
            return "ping"
        elif isinstance(message, (Pong,)):
            return "pong"
    """
)


def lint_protocol(tmp_path, messages_src, dispatch_src):
    return run_lint(
        tmp_path,
        {"src/bft/messages.py": messages_src, "src/bft/replica.py": dispatch_src},
        det_scope=[],
        protocol_messages="src/bft/messages.py",
        protocol_dispatch=["src/bft"],
    )


def test_well_formed_protocol_is_clean(tmp_path):
    result = lint_protocol(tmp_path, MESSAGES_OK, DISPATCH_OK)
    assert result.clean


def test_proto101_unhandled_message(tmp_path):
    result = lint_protocol(
        tmp_path, MESSAGES_OK, "def on_message(message):\n    return None\n"
    )
    fired = rules_fired(result)
    assert fired == ["PROTO101"]
    assert len(result.violations) == 2  # both Ping and Pong lack handlers


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


def test_state200_incomplete_wrapper(tmp_path):
    source = textwrap.dedent(
        """
        class HalfWrapper(ConformanceWrapper):
            def execute(self, op, client_id, timestamp_micros, read_only=False):
                return b""

            def get_obj(self, index):
                return b""
        """
    )
    result = run_lint(tmp_path, {"src/svc.py": source}, det_scope=[])
    assert rules_fired(result) == ["STATE200"]
    assert "put_objs" in result.violations[0].message


def test_state201_incomplete_state_machine(tmp_path):
    source = textwrap.dedent(
        """
        class HalfMachine(StateMachine):
            def execute(self, op, client_id, nondet, read_only=False):
                return b""

            def genesis_root_digest(self):
                return b""
        """
    )
    result = run_lint(tmp_path, {"src/svc.py": source}, det_scope=[])
    assert rules_fired(result) == ["STATE201"]
    assert "missing put_objs:" in result.violations[0].message


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
