"""Message log certificates: prepared, committed-local, proofs, GC."""

import pytest
from hypothesis import given, settings, strategies as st

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


# -- the certificate rule, against its set-based definition ------------------------

MATCH, OTHER = "match", "other"
VOTE = st.sampled_from([None, MATCH, OTHER])  # no vote, matching digest, another one


def reference_prepared(slot, f):
    """The definition: 2f distinct backups whose prepare matches the
    pre-prepare's batch digest; the primary's own prepare is not a vote."""
    if slot.pre_prepare is None:
        return False
    d = slot.pre_prepare.batch_digest()
    senders = {p.replica_id for p in slot.prepares.values()
               if p.digest == d and p.replica_id != slot.pre_prepare.primary_id}
    return len(senders) >= 2 * f


def reference_committed_local(slot, f):
    if not reference_prepared(slot, f):
        return False
    d = slot.pre_prepare.batch_digest()
    return len({c.replica_id for c in slot.commits.values() if c.digest == d}) >= 2 * f + 1


def fill_slot(f, primary, prepares, commits, with_pre_prepare=True):
    """Slot (0, 1) of a 3f+1 log: ``primary``'s pre-prepare (or none), then
    each replica's prepare and commit as ``VOTE`` values in replica order."""
    config = config_for(f)
    log = MessageLog(config)
    slot = log.slot(0, 1)
    pp = make_pre_prepare()
    pp.primary_id = config.replica_ids[primary]
    good = pp.batch_digest()
    if with_pre_prepare:
        slot.pre_prepare = pp
    digests = {MATCH: good, OTHER: b"\xee" * 32}
    for rid, vote in zip(config.replica_ids, prepares):
        if vote is not None:
            add_prepares(slot, digests[vote], [rid])
    for rid, vote in zip(config.replica_ids, commits):
        if vote is not None:
            add_commits(slot, digests[vote], [rid])
    return log, slot


@st.composite
def slots(draw):
    f = draw(st.sampled_from([1, 2]))
    n = 3 * f + 1
    return (
        f,
        draw(st.integers(0, n - 1)),
        draw(st.lists(VOTE, min_size=n, max_size=n)),
        draw(st.lists(VOTE, min_size=n, max_size=n)),
        draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(slots())
def test_certificates_agree_with_the_set_based_definition(case):
    f, primary, prepares, commits, with_pre_prepare = case
    log, slot = fill_slot(f, primary, prepares, commits, with_pre_prepare)
    assert log.prepared(slot, "R1") == reference_prepared(slot, f)
    assert log.committed_local(slot, "R1") == reference_committed_local(slot, f)


@pytest.mark.parametrize("f", [1, 2])
def test_certificates_at_exactly_2f_and_2f_plus_1_votes(f):
    n = 3 * f + 1
    backups = [None] + [MATCH] * (2 * f) + [None] * (n - 1 - 2 * f)
    commits = [MATCH] * (2 * f + 1) + [None] * (n - 2 * f - 1)
    log, slot = fill_slot(f, 0, backups, commits)
    assert log.prepared(slot, "R1") and log.committed_local(slot, "R1")
    # The primary's prepare on top of 2f - 1 backups is still 2f - 1 votes.
    short = [MATCH] + [MATCH] * (2 * f - 1) + [None] * (n - 2 * f)
    log, slot = fill_slot(f, 0, short, commits)
    assert not log.prepared(slot, "R1") and not reference_prepared(slot, f)
    # 2f commits (the primary's included) are one short of committed-local.
    log, slot = fill_slot(f, 0, backups, commits[: 2 * f] + [None] * (n - 2 * f))
    assert log.prepared(slot, "R1") and not log.committed_local(slot, "R1")
    # Missing pre-prepare: no certificate, whatever the votes.
    log, slot = fill_slot(f, 0, [MATCH] * n, [MATCH] * n, with_pre_prepare=False)
    assert not log.prepared(slot, "R1") and not log.committed_local(slot, "R1")
