"""Message log certificates: prepared, committed-local, proofs, GC."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.log import MessageLog
from repro.bft.messages import Commit, Prepare, PrePrepare, Request
from tests.conftest import config_for


@pytest.fixture
def log():
    return MessageLog(BFTConfig())


def make_pre_prepare(view=0, seqno=1):
    request = Request(client_id="C0", reqid=1, op=b"op")
    return PrePrepare(view=view, seqno=seqno, requests=[request], nondet=b"", primary_id="R0")


def add_prepares(slot, digest, senders):
    for sender in senders:
        slot.prepares[sender] = Prepare(
            view=slot.view, seqno=slot.seqno, digest=digest, replica_id=sender
        )


def add_commits(slot, digest, senders):
    for sender in senders:
        slot.commits[sender] = Commit(
            view=slot.view, seqno=slot.seqno, digest=digest, replica_id=sender
        )


def test_not_prepared_without_pre_prepare(log):
    slot = log.slot(0, 1)
    add_prepares(slot, b"\x00" * 32, ["R1", "R2"])
    assert not log.prepared(slot, "R1")


def slot_at(f):
    """A fresh log for the 3f+1 group, its slot (0, 1) holding R0's
    pre-prepare, and the backups whose votes the tests below count out."""
    config = config_for(f)
    log = MessageLog(config)
    slot = log.slot(0, 1)
    slot.pre_prepare = make_pre_prepare()
    return log, slot, slot.pre_prepare.batch_digest(), config.replica_ids[1:]


def test_prepared_needs_2f_backup_prepares():
    for f in (1, 2):
        log, slot, digest, backups = slot_at(f)
        add_prepares(slot, digest, backups[: 2 * f - 1])
        assert not log.prepared(slot, "R1"), f
        add_prepares(slot, digest, backups[: 2 * f])
        assert log.prepared(slot, "R1"), f


def test_primary_prepares_do_not_count(log):
    slot = log.slot(0, 1)
    pp = make_pre_prepare()
    slot.pre_prepare = pp
    add_prepares(slot, pp.batch_digest(), ["R0", "R1"])  # R0 is the primary
    assert not log.prepared(slot, "R1")


def test_mismatched_digest_prepares_do_not_count(log):
    slot = log.slot(0, 1)
    pp = make_pre_prepare()
    slot.pre_prepare = pp
    add_prepares(slot, b"\xff" * 32, ["R1", "R2", "R3"])
    assert not log.prepared(slot, "R1")


def test_committed_local_needs_quorum_commits():
    for f in (1, 2):
        log, slot, digest, backups = slot_at(f)
        add_prepares(slot, digest, backups[: 2 * f])
        add_commits(slot, digest, ["R0"] + backups[: 2 * f - 1])
        assert not log.committed_local(slot, "R1"), f
        add_commits(slot, digest, backups[: 2 * f])
        assert log.committed_local(slot, "R1"), f


def test_prepared_proof_materializes_2f_prepares():
    for f in (1, 2):
        log, slot, digest, backups = slot_at(f)
        add_prepares(slot, digest, backups)
        proof = log.prepared_proof(slot)
        assert proof is not None
        assert len(proof.prepares) == 2 * f
        assert proof.digest() == digest


def test_prepared_proof_absent_without_quorum():
    for f in (1, 2):
        log, slot, digest, backups = slot_at(f)
        add_prepares(slot, digest, backups[: 2 * f - 1])
        assert log.prepared_proof(slot) is None, f


def test_best_prepared_proof_prefers_higher_view(log):
    for view in (0, 2):
        slot = log.slot(view, 5)
        pp = make_pre_prepare(view=view, seqno=5)
        pp.primary_id = f"R{view % 4}"
        slot.pre_prepare = pp
        others = [r for r in ("R0", "R1", "R2", "R3") if r != pp.primary_id]
        add_prepares(slot, pp.batch_digest(), others[:2])
    proof = log.best_prepared_proof(5, "R3")
    assert proof is not None
    assert proof.view() == 2


def test_collect_below_drops_old_slots(log):
    for seqno in (1, 2, 3):
        log.slot(0, seqno)
    log.collect_below(2)
    assert log.get(0, 1) is None
    assert log.get(0, 2) is None
    assert log.get(0, 3) is not None


def test_max_seqno(log):
    log.slot(0, 3)
    log.slot(1, 7)
    assert log.max_seqno() == 7
