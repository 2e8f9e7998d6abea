"""Replica-side message validation: everything a Byzantine sender might try
on the normal-case path gets dropped with the right counter."""

import pytest

from repro.bft.messages import Commit, Prepare, PrePrepare, Request, Status
from repro.bft.testing import encode_set, kv_cluster


@pytest.fixture
def rig():
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"warm"))
    return cluster


def signed_pre_prepare(cluster, view, seqno, primary="R0", signer=None, requests=None):
    request = Request(client_id="C0", reqid=77, op=encode_set(1, b"x"))
    request.auth = cluster.keys.make_authenticator(
        "C0", cluster.config.replica_ids, request.signable_bytes()
    )
    pp = PrePrepare(
        view=view,
        seqno=seqno,
        requests=requests if requests is not None else [request],
        nondet=b"",
        primary_id=primary,
    )
    pp.sig = cluster.sigs.keygen(signer or primary).sign(pp.signable_bytes())
    return pp


def deliver(cluster, dst, src, message):
    """Hand a signed message to ``dst`` as if ``src`` had multicast it: its
    signature is all it carries."""
    cluster.replica(dst).on_message(message, src)


def test_pre_prepare_from_non_primary_rejected(rig):
    cluster = rig
    pp = signed_pre_prepare(cluster, view=0, seqno=5, primary="R2", signer="R2")
    deliver(cluster, "R1", "R2", pp)
    assert cluster.replica("R1").counters.get("pre_prepare_wrong_primary") == 1
    assert cluster.replica("R1").log.get(0, 5) is None


def test_pre_prepare_relayed_by_third_party_rejected(rig):
    cluster = rig
    pp = signed_pre_prepare(cluster, view=0, seqno=5)
    deliver(cluster, "R1", "R3", pp)  # correct primary id, wrong network source
    assert cluster.replica("R1").counters.get("pre_prepare_relayed") == 1


def test_pre_prepare_with_forged_signature_rejected(rig):
    cluster = rig
    pp = signed_pre_prepare(cluster, view=0, seqno=5, signer="R3")  # wrong key
    deliver(cluster, "R1", "R0", pp)
    assert cluster.replica("R1").counters.get("pre_prepare_bad_sig") == 1


def test_pre_prepare_outside_window_rejected(rig):
    cluster = rig
    beyond = cluster.config.log_window + 100
    pp = signed_pre_prepare(cluster, view=0, seqno=beyond)
    deliver(cluster, "R1", "R0", pp)
    assert cluster.replica("R1").counters.get("pre_prepare_out_of_window") == 1


def test_pre_prepare_for_stale_view_rejected(rig):
    cluster = rig
    replica = cluster.replica("R1")
    replica.view = 2  # pretend we moved on
    pp = signed_pre_prepare(cluster, view=0, seqno=5)
    deliver(cluster, "R1", "R0", pp)
    assert replica.counters.get("pre_prepare_wrong_view") == 1


def test_conflicting_pre_prepare_counted_not_accepted(rig):
    cluster = rig
    first = signed_pre_prepare(cluster, view=0, seqno=5)
    deliver(cluster, "R1", "R0", first)
    conflicting = signed_pre_prepare(cluster, view=0, seqno=5, requests=[])
    deliver(cluster, "R1", "R0", conflicting)
    replica = cluster.replica("R1")
    assert replica.counters.get("conflicting_pre_prepare") == 1
    slot = replica.log.get(0, 5)
    assert slot.pre_prepare.batch_digest() == first.batch_digest()


def test_prepare_claiming_to_be_primary_rejected(rig):
    cluster = rig
    prepare = Prepare(view=0, seqno=5, digest=b"\x00" * 32, replica_id="R0")
    prepare.sig = cluster.sigs.keygen("R0").sign(prepare.signable_bytes())
    deliver(cluster, "R1", "R0", prepare)
    assert cluster.replica("R1").counters.get("prepare_from_primary") == 1


def test_prepare_relayed_under_wrong_identity_rejected(rig):
    cluster = rig
    prepare = Prepare(view=0, seqno=5, digest=b"\x00" * 32, replica_id="R2")
    prepare.sig = cluster.sigs.keygen("R2").sign(prepare.signable_bytes())
    deliver(cluster, "R1", "R3", prepare)  # src != replica_id
    slot = cluster.replica("R1").log.get(0, 5)
    assert slot is None or "R2" not in slot.prepares


def test_unauthenticated_message_dropped(rig):
    """Each message is authenticated once: a signed one by its signature, any
    other by its MAC vector.  Either one missing or bad, it is dropped."""
    cluster = rig
    replica = cluster.replica("R1")
    forged = signed_pre_prepare(cluster, view=0, seqno=5, signer="R3")
    unsigned = signed_pre_prepare(cluster, view=0, seqno=6)
    unsigned.sig = b""
    for pp in (forged, unsigned):
        replica.on_message(pp, "R0")
    assert replica.counters.get("pre_prepare_bad_sig") == 2
    assert replica.log.get(0, 5) is None and replica.log.get(0, 6) is None

    status = Status(replica_id="R0", view=0, stable_seqno=0, last_executed=0)
    assert status.auth is None
    replica.on_message(status, "R0")
    assert replica.counters.get("auth_missing") == 1


def test_request_with_forged_client_auth_dropped(rig):
    cluster = rig
    request = Request(client_id="victim", reqid=1, op=encode_set(2, b"evil"))
    # MAC'd with the WRONG principal's keys (the attacker's own).
    request.auth = cluster.keys.make_authenticator(
        "attacker", cluster.config.replica_ids, request.signable_bytes()
    )
    before = cluster.replica("R0").counters.get("auth_failed")
    cluster.replica("R0").on_message(request, "attacker")
    cluster.settle(0.5)
    # The request never enters the pipeline.
    assert ("victim", 1) not in cluster.replica("R0").pending
    assert ("victim", 1) not in cluster.replica("R0").in_flight


def test_primary_cannot_fabricate_client_requests(rig):
    """A Byzantine primary forging a batch on behalf of a client fails: the
    batched request lacks the client's authenticator."""
    cluster = rig
    forged = Request(client_id="victim", reqid=9, op=encode_set(3, b"planted"))
    forged.auth = cluster.keys.make_authenticator(
        "R0", cluster.config.replica_ids, forged.signable_bytes()
    )  # primary's keys, not the client's
    pp = PrePrepare(view=0, seqno=5, requests=[forged], nondet=b"", primary_id="R0")
    pp.sig = cluster.sigs.keygen("R0").sign(pp.signable_bytes())
    deliver(cluster, "R1", "R0", pp)
    replica = cluster.replica("R1")
    assert replica.counters.get("pre_prepare_bad_request") == 1
    assert replica.log.get(0, 5) is None


def test_checkpoint_with_bad_signature_ignored(rig):
    cluster = rig
    from repro.bft.messages import Checkpoint

    ckpt = Checkpoint(seqno=8, state_digest=b"\x01" * 32, replica_id="R2")
    ckpt.sig = b"\x00" * 32
    deliver(cluster, "R1", "R2", ckpt)
    assert cluster.replica("R1").counters.get("checkpoint_bad_sig") == 1
    assert "R2" not in cluster.replica("R1").checkpoint_votes.get(8, {})


def test_votes_with_forged_signatures_ignored(rig):
    """A prepare or commit is authenticated by its signature alone, so one
    signed under another replica's key never counts."""
    cluster = rig
    replica = cluster.replica("R1")
    for cls in (Prepare, Commit):
        vote = cls(view=0, seqno=5, digest=b"\x00" * 32, replica_id="R2")
        vote.sig = cluster.sigs.keygen("R3").sign(vote.signable_bytes())
        deliver(cluster, "R1", "R2", vote)
    assert replica.counters.get("prepare_bad_sig") == 1
    assert replica.counters.get("commit_bad_sig") == 1
    slot = replica.log.get(0, 5)
    assert slot is None or ("R2" not in slot.prepares and "R2" not in slot.commits)
