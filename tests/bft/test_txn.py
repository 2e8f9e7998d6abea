"""Cross-shard transaction layer: wire encoding, participant semantics
(votes, locks, tombstones, idempotence), and durable participant state."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bft.messages import TxnDecide, TxnPrepare
from repro.bft.testing import KVStateMachine, encode_set
from repro.bft.txn import (
    TXN_ABORTED,
    TXN_BAD_CERT,
    TXN_COMMITTED,
    VOTE_ABORT,
    VOTE_COMMIT,
    TxnParticipant,
    decode_txn_op,
    encode_txn_decide,
    encode_txn_prepare,
    is_txn_op,
)


# -- wire encoding -------------------------------------------------------------


def test_prepare_round_trips_through_op_bytes():
    op = encode_txn_prepare("C0:7", [(2, b"x"), (0, b"y")])
    assert is_txn_op(op)
    message = decode_txn_op(op)
    assert isinstance(message, TxnPrepare)
    assert message.txid == "C0:7"
    assert message.writes == [(2, b"x"), (0, b"y")]


def test_decide_round_trips_through_op_bytes():
    for commit in (True, False):
        message = decode_txn_op(encode_txn_decide("C0:7", commit))
        assert isinstance(message, TxnDecide)
        assert message.txid == "C0:7" and message.commit is commit


def test_non_txn_ops_are_not_decoded():
    assert decode_txn_op(encode_set(0, b"v")) is None
    assert not is_txn_op(encode_set(0, b"v"))


def test_trailing_garbage_is_not_a_txn_op():
    assert decode_txn_op(encode_txn_decide("t", True) + b"junk") is None


IDS = st.text(max_size=6)
TXN_MESSAGES = st.one_of(
    st.builds(
        TxnPrepare,
        txid=IDS,
        writes=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.binary(max_size=9)), max_size=4),
    ),
    st.builds(
        TxnDecide,
        txid=IDS,
        commit=st.booleans(),
        votes=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.lists(IDS, max_size=3)), max_size=3
        ),
    ),
)


@settings(max_examples=150)
@given(message=TXN_MESSAGES, tail=st.binary(min_size=1, max_size=8))
def test_decoder_inverts_the_encoder_and_rejects_every_other_length(message, tail):
    op = message.signable_bytes()
    assert decode_txn_op(op) == message
    for cut in range(len(op)):
        assert decode_txn_op(op[:cut]) is None
    assert decode_txn_op(op + tail) is None


def test_malformed_txn_ops_decode_to_none_not_to_an_exception():
    tag = 16  # "TXN-PREPARE" and "TXN-DECIDE" each pack to 16 bytes
    decide = encode_txn_decide("C0:7", True)
    bool_at = tag + 4 + 4  # after the txid's length word and its four bytes
    assert decide[bool_at : bool_at + 4] == b"\x00\x00\x00\x01"
    assert decode_txn_op(decide[:bool_at] + b"\x00\x00\x00\x02" + decide[bool_at + 4 :]) is None
    prepare = encode_txn_prepare("abc", [])
    pad_at = tag + 4 + 3  # the one pad byte after a three-byte txid
    assert prepare[pad_at] == 0 and decode_txn_op(prepare) is not None
    assert decode_txn_op(prepare[:pad_at] + b"\x01" + prepare[pad_at + 1 :]) is None
    assert decode_txn_op(encode_txn_prepare("abcd", []).replace(b"abcd", b"ab\xff\xfe")) is None
    # A plain KV op that merely starts with the tag bytes is still a plain op.
    assert is_txn_op(prepare[:tag] + encode_set(0, b"v"))
    assert decode_txn_op(prepare[:tag] + encode_set(0, b"v")) is None


# -- participant semantics -----------------------------------------------------


def _service(weak_quorum=2):
    """Transactional KV with 4 data slots; slot 4 is the participant table."""
    return KVStateMachine(num_slots=5, disk={}, transactional=True, weak_quorum=weak_quorum)


def _prepare(service, txid, writes, read_only=False):
    return service.execute(
        encode_txn_prepare(txid, writes), client_id="C0", nondet=b"", read_only=read_only
    )


def _decide(service, txid, commit, votes=None):
    # Commit decides must carry the per-shard vote certificate (f+1 ids per
    # participant shard); default to a well-formed one for this service's
    # weak quorum of 2.  Aborts need none.
    if votes is None and commit:
        votes = [(0, ["R0", "R1"])]
    return service.execute(
        encode_txn_decide(txid, commit, votes),
        client_id="C0",
        nondet=b"",
        read_only=False,
    )


def test_commit_applies_writes_and_releases_locks():
    service = _service()
    assert _prepare(service, "t1", [(1, b"a"), (3, b"b")]) == VOTE_COMMIT
    assert service.participant.locked(1) and service.participant.locked(3)
    assert service.cells[1] == b""  # nothing visible until the decision
    assert _decide(service, "t1", True) == TXN_COMMITTED
    assert service.cells[1] == b"a" and service.cells[3] == b"b"
    assert service.disk[1] == b"a"  # write-through, like any mutation
    assert not service.participant.locked(1)
    assert service.participant.decisions == {"t1": True}


def test_abort_discards_writes():
    service = _service()
    _prepare(service, "t1", [(1, b"a")])
    assert _decide(service, "t1", False) == TXN_ABORTED
    assert service.cells[1] == b""
    assert not service.participant.locked(1)
    assert service.participant.decisions == {"t1": False}


def test_out_of_range_write_votes_abort():
    service = _service()
    # Slot 4 is the reserved participant table; slot 9 does not exist.
    assert _prepare(service, "t1", [(4, b"a")]) == VOTE_ABORT
    assert _prepare(service, "t2", [(9, b"a")]) == VOTE_ABORT
    # An abort vote locks nothing.
    assert not service.participant.locked(4)


def test_conflicting_prepare_votes_abort():
    service = _service()
    assert _prepare(service, "t1", [(1, b"a")]) == VOTE_COMMIT
    assert _prepare(service, "t2", [(1, b"b")]) == VOTE_ABORT
    assert service.participant.counters.get("txn_lock_conflicts") == 1
    # t2's abort decision must not release t1's lock.
    _decide(service, "t2", False)
    assert service.participant.locked(1)
    assert _decide(service, "t1", True) == TXN_COMMITTED
    assert service.cells[1] == b"a"


def test_prepare_and_decide_are_idempotent():
    service = _service()
    assert _prepare(service, "t1", [(1, b"a")]) == VOTE_COMMIT
    assert _prepare(service, "t1", [(1, b"a")]) == VOTE_COMMIT
    assert _decide(service, "t1", True) == TXN_COMMITTED
    before = service.cells[1]
    assert _decide(service, "t1", True) == TXN_COMMITTED
    assert _decide(service, "t1", False) == TXN_COMMITTED  # outcome is sticky
    assert service.cells[1] == before
    assert service.participant.counters.get("txn_decides_stale") == 2


def test_decide_before_prepare_leaves_a_tombstone():
    """An abandoned coordinator's retransmitted decision can arrive before the
    prepare it belongs to ever does; the late prepare must vote the decided
    way and take no locks (nothing will ever clean them up)."""
    service = _service()
    assert _decide(service, "ghost", False) == TXN_ABORTED
    assert _prepare(service, "ghost", [(1, b"a")]) == VOTE_ABORT
    assert not service.participant.locked(1)
    assert service.cells[1] == b""


def test_prepare_is_a_mutation():
    service = _service()
    assert b"ERR" in _prepare(service, "t1", [(1, b"a")], read_only=True)
    assert not service.participant.locked(1)


def test_locked_slot_rejects_direct_writes():
    service = _service()
    _prepare(service, "t1", [(1, b"a")])
    result = service.execute(
        encode_set(1, b"direct"), client_id="C1", nondet=b"", read_only=False
    )
    assert result == b"ERR locked"
    # Unlocked slots stay writable throughout.
    assert service.execute(
        encode_set(2, b"ok"), client_id="C1", nondet=b"", read_only=False
    ) == b"OK"


def test_participant_state_survives_reload():
    """Pending votes, locks, and tombstones live in the reserved table cell —
    a replica rebuilt over the same disk (crash/reboot, state transfer)
    reconstructs the identical participant state."""
    service = _service()
    _prepare(service, "pending", [(1, b"a")])
    _prepare(service, "done", [(2, b"b")])
    _decide(service, "done", True)

    reborn = KVStateMachine(num_slots=5, disk=service.disk, transactional=True)
    assert reborn.participant.locked(1)
    assert not reborn.participant.locked(2)
    assert reborn.participant.decisions == {"done": True}
    # The reloaded pending prepare still resolves correctly.
    assert _decide(reborn, "pending", True) == TXN_COMMITTED
    assert reborn.cells[1] == b"a"


def test_table_cell_is_deterministic():
    a, b = _service(), _service()
    for service in (a, b):
        _prepare(service, "t2", [(2, b"y")])
        _prepare(service, "t1", [(1, b"x")])
        _decide(service, "t2", False)
    assert a.cells[4] == b.cells[4]
    assert a.manager.tree.root() == b.manager.tree.root()


#: The table cell after one prepare committed, one aborted, a decide ordered
#: before its prepare (the ghost), one prepare left pending and one pending
#: abort vote (a lock conflict with it): pending entries then tombstones,
#: each in sorted-txid order.
GOLDEN_TABLE_CELL = bytes.fromhex(
    "00000002"
    "000000056c6f73657200000000000000000000020000000000000004"
    "6e6f7065000000020000000374776f00"
    "0000000770656e64696e6700000000010000000100000000000000047a65726f"
    "00000003"
    "0000000861626f72742d6d6500000000"
    "00000009636f6d6d69742d6d6500000000000001"
    "0000000567686f737400000000000000"
)


def _table_history(service):
    _prepare(service, "commit-me", [(1, b"one"), (3, b"three")])
    _prepare(service, "abort-me", [(2, b"two")])
    _decide(service, "commit-me", True)
    _decide(service, "abort-me", False)
    _decide(service, "ghost", False)
    _prepare(service, "ghost", [(0, b"late")])
    _prepare(service, "pending", [(0, b"zero")])
    _prepare(service, "loser", [(0, b"nope"), (2, b"two")])


def test_table_cell_bytes_are_pinned():
    service = _service()
    _table_history(service)
    assert service.cells[4] == GOLDEN_TABLE_CELL


def test_a_reloaded_table_goes_on_writing_the_same_bytes():
    """A participant rebuilt from the cell (reboot, state transfer, rollback)
    writes exactly what the one that never reloaded writes next."""
    service = _service()
    _table_history(service)
    reborn = KVStateMachine(num_slots=5, disk=service.disk, transactional=True)
    rolled_back = _service()
    rolled_back.put_objs({4: GOLDEN_TABLE_CELL})
    for machine in (service, reborn, rolled_back):
        assert _decide(machine, "pending", True) == TXN_COMMITTED
        assert _prepare(machine, "after", [(3, b"3")]) == VOTE_COMMIT
    assert reborn.cells[4] == rolled_back.cells[4] == service.cells[4]


def test_participant_requires_the_reserved_cell():
    with pytest.raises(ValueError):
        TxnParticipant(KVStateMachine(num_slots=1, disk={}), 0)


# -- vote-certificate verification (hardened decides) --------------------------


def test_decide_votes_round_trip_through_op_bytes():
    votes = [(0, ["R0", "R2"]), (3, ["R1", "R3"])]
    message = decode_txn_op(encode_txn_decide("C0:7", True, votes))
    assert isinstance(message, TxnDecide)
    assert message.votes == votes


def test_commit_without_certificate_is_rejected():
    """A forged commit decide carrying no f+1 vote certificate must not
    apply writes, must not release locks, and must not settle the outcome —
    the real coordinator's (or a recovering one's) certified decide still
    lands afterwards."""
    service = _service()
    assert _prepare(service, "t1", [(1, b"a")]) == VOTE_COMMIT
    assert _decide(service, "t1", True, votes=[]) == TXN_BAD_CERT
    assert service.cells[1] == b""
    assert service.participant.locked(1)
    assert service.participant.decisions == {}
    assert service.participant.counters.get("txn_decides_rejected") == 1
    # The certified decide settles normally afterwards.
    assert _decide(service, "t1", True) == TXN_COMMITTED
    assert service.cells[1] == b"a"


def test_commit_with_thin_certificate_is_rejected():
    """Every participant shard's entry needs f+1 *distinct* replica ids."""
    for f in (1, 2):
        service = _service(weak_quorum=f + 1)
        _prepare(service, "t1", [(1, b"a")])
        voters = [f"R{i}" for i in range(f + 1)]
        assert _decide(service, "t1", True, votes=[(0, voters[:f])]) == TXN_BAD_CERT
        assert _decide(service, "t1", True, votes=[(0, voters)]) == TXN_COMMITTED
    service = _service()
    _prepare(service, "t1", [(1, b"a")])
    assert _decide(service, "t1", True, votes=[(0, ["R0", "R0"])]) == TXN_BAD_CERT
    assert _decide(service, "t1", True, votes=[(0, ["R0", ""])]) == TXN_BAD_CERT
    assert (
        _decide(service, "t1", True, votes=[(0, ["R0", "R1"]), (0, ["R2", "R3"])])
        == TXN_BAD_CERT
    )  # duplicate shard entries cannot widen a thin certificate
    assert service.participant.counters.get("txn_decides_rejected") == 3
    assert _decide(service, "t1", True) == TXN_COMMITTED


def test_abort_needs_no_certificate():
    """Aborts are safe to apply on any evidence — the status quo outcome —
    and abandoned-coordinator cleanup depends on certificate-free aborts."""
    service = _service()
    _prepare(service, "t1", [(1, b"a")])
    assert _decide(service, "t1", False, votes=[]) == TXN_ABORTED
    assert not service.participant.locked(1)
