"""FLOW6xx: the message producer/consumer graph and the static freeze check."""

from tests.analysis.flow.util import build_flow_context, rules_fired, run_analyze

MESSAGES = """
_POST_FREEZE_MUTABLE = frozenset({"auth", "sig"})


class Message:
    pass


class Ping(Message):
    seq: int


class Pong(Message):
    seq: int


class Orphan(Message):
    seq: int


class Ghost(Message):
    seq: int


class Inner(Message):
    seq: int


class Carrier(Message):
    inner: Inner
"""

NODE = """
from proto.messages import Carrier, Ghost, Inner, Orphan, Ping, Pong


class Node:
    def on_message(self, message):
        if isinstance(message, Ping):
            self.send(Pong(1))
        elif isinstance(message, Pong):
            pass
        elif isinstance(message, Ghost):
            pass
        elif isinstance(message, Carrier):
            pass

    def send(self, message):
        pass

    def start(self):
        ping = Ping(0)
        self.send(ping)

    def leak(self):
        orphan = Orphan(2)
        self.send(orphan)

    def wrap(self):
        carrier = Carrier(Inner(3))
        self.send(carrier)

    def flush_inner(self):
        inner = Inner(4)
        self.send(inner)
"""


def _analyze(tmp_path, files):
    # The PROTO invariants are covered by their own tests, disable them here.
    return run_analyze(
        tmp_path,
        files,
        protocol_messages="src/proto/messages.py",
        protocol_dispatch=["src"],
        disable=["PROTO101", "PROTO103"],
    )


BASE = {"src/proto/messages.py": MESSAGES, "src/node.py": NODE}


def test_flow_findings_on_the_synthetic_protocol(tmp_path):
    result = _analyze(tmp_path, BASE)
    fired = rules_fired(result)
    # Orphan: emitted, no dispatch arm.  Ghost: arm, never constructed.
    # Inner is emitted without an arm too, but travels embedded as a field
    # of Carrier, so FLOW601 exempts it.
    assert fired == ["FLOW601", "FLOW602"]
    flow601 = next(v for v in result.violations if v.rule == "FLOW601")
    assert "Orphan" in flow601.message
    assert flow601.path == "src/node.py"
    flow602 = next(v for v in result.violations if v.rule == "FLOW602")
    assert "Ghost" in flow602.message


def test_message_graph_structure(tmp_path):
    fctx = build_flow_context(
        tmp_path,
        BASE,
        protocol_messages="src/proto/messages.py",
        protocol_dispatch=["src"],
    )
    graph = fctx.message_graph
    assert set(graph.nodes) == {"Ping", "Pong", "Orphan", "Ghost", "Inner", "Carrier"}
    ping = graph.nodes["Ping"]
    assert ping.producers and ping.emitters and ping.consumers
    assert graph.nodes["Inner"].embedded_in == ["Carrier"]
    assert graph.post_freeze_mutable == frozenset({"auth", "sig"})


def test_post_freeze_write_is_flagged(tmp_path):
    files = dict(BASE)
    files["src/signer.py"] = """
from proto.messages import Ping


def sign_then_mutate(key):
    ping = Ping(1)
    wire = ping.signable_bytes()
    ping.seq = 2
    ping.sig = key.sign(wire)
    return ping
"""
    result = _analyze(tmp_path, files)
    flow603 = [v for v in result.violations if v.rule == "FLOW603"]
    # exactly one: ping.seq at line 8.  The `ping.sig = ...` write on the next
    # line is in the runtime's post-freeze allow-list and is not flagged.
    assert len(flow603) == 1
    violation = flow603[0]
    assert violation.path == "src/signer.py"
    assert violation.line == 8
    assert "`ping.seq`" in violation.message


def test_send_freezes_too_and_prior_writes_are_fine(tmp_path):
    files = dict(BASE)
    files["src/sender.py"] = """
from proto.messages import Ping


def prepare_and_send(node):
    ping = Ping(1)
    ping.seq = 7
    node.send(ping)
    ping.seq = 8
    return ping
"""
    result = _analyze(tmp_path, files)
    flow603 = [v for v in result.violations if v.rule == "FLOW603"]
    assert len(flow603) == 1
    assert flow603[0].line == 9
