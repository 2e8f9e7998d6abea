"""BASEService: the glue between a conformance wrapper and the engine."""

import pytest

from repro.base.abstraction import AbstractSpec
from repro.base.library import BASEService
from repro.base.wrapper import ConformanceWrapper
from repro.bft.nondet import decode_timestamp, encode_timestamp
from repro.bft.service import StateMachine
from repro.util.clock import ManualClock
from repro.util.xdr import XdrEncoder


class TinySpec(AbstractSpec):
    def __init__(self, num_objects=4):
        self.num_objects = num_objects

    def initial_object(self, index):
        return b""


class TinyWrapper(ConformanceWrapper):
    """Stores one byte string per object; op = XDR(index, value)."""

    def __init__(self):
        super().__init__(TinySpec())
        self.values = [b""] * self.spec.num_objects
        self.seen_timestamps = []
        self.saved = 0

    def execute(self, op, client_id, timestamp_micros, read_only=False):
        from repro.util.xdr import XdrDecoder

        dec = XdrDecoder(op)
        index = dec.unpack_u32()
        value = dec.unpack_opaque()
        self.seen_timestamps.append(timestamp_micros)
        if read_only:
            return self.values[index]
        self.modify(index)
        self.values[index] = value
        return b"ok"

    def get_obj(self, index):
        return self.values[index]

    def put_objs(self, objects):
        for index, value in objects.items():
            self.values[index] = value

    def save_for_recovery(self):
        self.saved += 1


def op(index, value=b"x"):
    return XdrEncoder().pack_u32(index).pack_opaque(value).getvalue()


@pytest.fixture
def service():
    return BASEService(TinyWrapper(), ManualClock(start=5.0), arity=2)


def test_execute_decodes_agreed_timestamp(service):
    service.execute(op(0), "C0", encode_timestamp(7_000_000))
    assert service.wrapper.seen_timestamps == [7_000_000]


def test_read_only_gets_zero_timestamp(service):
    service.execute(op(0), "C0", b"", read_only=True)
    assert service.wrapper.seen_timestamps == [0]


def test_nondet_round_trip(service):
    proposal = service.propose_nondet()
    assert service.check_nondet(proposal)
    assert decode_timestamp(proposal) == 5_000_000


def test_check_rejects_garbage_nondet(service):
    assert not service.check_nondet(b"nope")


def test_modify_wired_into_wrapper(service):
    service.execute(op(1, b"new"), "C0", encode_timestamp(6_000_000))
    service.manager.take_checkpoint(10)
    service.execute(op(1, b"newer"), "C0", encode_timestamp(6_100_000))
    assert service.manager.get_object_at(10, 1) == b"new"


def test_checkpoint_and_root_digest(service):
    digest_a = service.manager.take_checkpoint(10)
    assert service.manager.root_digest(10) == digest_a
    service.execute(op(2, b"dirty"), "C0", encode_timestamp(6_000_000))
    digest_b = service.manager.take_checkpoint(20)
    assert digest_a != digest_b
    assert service.manager.checkpoint_seqnos() == [10, 20]
    service.manager.discard_checkpoints_below(20)
    assert service.manager.checkpoint_seqnos() == [20]


def test_genesis_digest_is_cached_and_matches_fresh_state(service):
    genesis = service.genesis_root_digest()
    assert genesis == service.genesis_root_digest()  # cached
    assert service.current_node(0, 0)[1] == genesis  # fresh service == genesis


def test_install_fetched_routes_through_put_objs(service):
    root = service.manager.install_fetched({1: (b"installed", 3)}, 30, service.put_objs)
    assert service.wrapper.values[1] == b"installed"
    assert service.manager.root_digest(30) == root


def _committed_twin():
    """The state a service reaches by plain (non-speculative) execution."""
    twin = BASEService(TinyWrapper(), ManualClock(start=5.0), arity=2)
    twin.execute(op(1, b"kept"), "C0", encode_timestamp(6_000_000))
    twin.record_reply("C0", 1, b"ok")
    twin.manager.take_checkpoint(8)
    return twin


def test_speculation_rollback_restores_objects_replies_and_root():
    service = _committed_twin()
    before = (
        list(service.wrapper.values),
        service.manager.last_recorded("C0"),
        service.current_node(0, 0),
    )
    service.begin_speculation()
    service.execute(op(1, b"tentative"), "C0", encode_timestamp(6_100_000))
    service.execute(op(3, b"also"), "C0", encode_timestamp(6_100_000))
    service.record_reply("C0", 2, b"ok")
    assert service.wrapper.values[1] == b"tentative"

    assert service.rollback_speculation() == 1
    after = (
        list(service.wrapper.values),
        service.manager.last_recorded("C0"),
        service.current_node(0, 0),
    )
    assert after == before
    assert [service.wrapper.get_obj(i) for i in range(4)] == [b"", b"kept", b"", b""]
    # Nothing of the frame is left to leak into the next checkpoint.
    assert service.manager.take_checkpoint(16) == _committed_twin().manager.take_checkpoint(16)


def test_promoted_speculation_equals_plain_execution():
    service, twin = _committed_twin(), _committed_twin()
    service.begin_speculation()
    for machine in (service, twin):
        machine.execute(op(2, b"new"), "C0", encode_timestamp(6_100_000))
        machine.record_reply("C0", 2, b"ok")
    service.commit_speculation()
    assert service.rollback_speculation() == 0  # no frame left to undo
    assert service.wrapper.values == twin.wrapper.values
    assert service.manager.last_recorded("C0") == twin.manager.last_recorded("C0") == (2, b"ok")
    assert service.manager.take_checkpoint(16) == twin.manager.take_checkpoint(16)
    assert service.manager.get_object_at(8, 2) == twin.manager.get_object_at(8, 2) == b""


def test_get_leaf_is_the_checkpointed_lm_and_digest(service):
    service.execute(op(1, b"v"), "C0", encode_timestamp(6_000_000))
    service.manager.take_checkpoint(8)
    assert service.manager.get_leaf(8, 1) == service.current_node(service.manager.num_levels(), 1)
    assert service.manager.get_leaf(8, 1)[0] == 8
    assert service.manager.get_leaf(9, 1) is None


def test_record_reply_round_trip(service):
    assert service.manager.last_recorded("C9") is None
    service.record_reply("C9", 4, b"res")
    assert service.manager.last_recorded("C9") == (4, b"res")


def test_save_for_recovery_delegates(service):
    service.save_for_recovery()
    assert service.wrapper.saved == 1


def test_wrapper_base_defaults():
    wrapper = TinyWrapper()
    wrapper.modify(1)  # default callback: no-op, must not raise
    assert wrapper.spec.validate_object(0, b"anything")  # default: True


def test_a_wrapper_or_state_machine_missing_put_objs_cannot_be_instantiated():
    """Speculation rollback and state transfer call ``put_objs`` exactly when
    fault tolerance is being relied upon; a class without it never gets that
    far, however deep in the hierarchy the gap is."""

    class HalfWrapper(ConformanceWrapper):
        def execute(self, op, client_id, timestamp_micros, read_only=False):
            return b""

        def get_obj(self, index):
            return b""

    class StillHalf(HalfWrapper):
        pass

    with pytest.raises(TypeError, match="put_objs"):
        StillHalf(TinySpec())

    class HalfMachine(StateMachine):
        def execute(self, op, client_id, nondet, read_only=False):
            return b""

        def genesis_root_digest(self):
            return b""

    with pytest.raises(TypeError, match="put_objs"):
        HalfMachine(manager=None)
