"""View-change message validation: forged or malformed certificates are
rejected (the safety half of the view-change protocol)."""

import pytest

from repro.bft.messages import (
    NewView,
    Prepare,
    PrePrepare,
    PreparedProof,
    Request,
    ViewChange,
)
from repro.bft.testing import encode_set, kv_cluster
from tests.conftest import config_for, signed_checkpoint


def make_rig(f=1):
    cluster = kv_cluster(config=config_for(f))
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"warm"))
    return cluster


@pytest.fixture
def rig():
    return make_rig()


def make_view_change(cluster, sender, new_view=1, sign_as=None):
    replica = cluster.replica(sender)
    vc = ViewChange(
        new_view=new_view,
        stable_seqno=0,
        checkpoint_proof=[],
        prepared=[],
        replica_id=sender,
    )
    signer = cluster.sigs.keygen(sign_as or sender)
    vc.sig = signer.sign(vc.signable_bytes())
    return vc


def test_view_change_with_bad_signature_rejected(rig):
    cluster = rig
    target = cluster.replica("R1")
    vc = make_view_change(cluster, "R2")
    vc.sig = b"\x00" * 32
    target.view_changes.on_view_change(vc, "R2")
    assert target.counters.get("view_change_bad_sig") == 1
    assert "R2" not in target.view_changes.messages.get(1, {})


def test_view_change_from_wrong_sender_rejected(rig):
    cluster = rig
    target = cluster.replica("R1")
    vc = make_view_change(cluster, "R2")
    target.view_changes.on_view_change(vc, "R3")  # relayed under wrong identity
    assert "R2" not in target.view_changes.messages.get(1, {})


def offer_view_change(cluster, target, **fields):
    """R2's signed VIEW-CHANGE for view 1 handed to ``target``: was it kept?"""
    vc = ViewChange(new_view=1, replica_id="R2", **fields)
    vc.sig = cluster.sigs.keygen("R2").sign(vc.signable_bytes())
    target.view_changes.on_view_change(vc, "R2")
    return "R2" in target.view_changes.messages.get(1, {})


def test_prepared_proof_with_too_few_prepares_rejected():
    for f in (1, 2):
        cluster = make_rig(f)
        target = cluster.replica("R1")
        request = Request(client_id="C0", reqid=99, op=b"fake")
        pp = PrePrepare(view=0, seqno=5, requests=[request], nondet=b"", primary_id="R0")
        pp.sig = cluster.sigs.keygen("R0").sign(pp.signable_bytes())
        prepares = []
        for sender in cluster.config.replica_ids[1 : 2 * f + 1]:
            prepare = Prepare(view=0, seqno=5, digest=pp.batch_digest(), replica_id=sender)
            prepare.sig = cluster.sigs.keygen(sender).sign(prepare.signable_bytes())
            prepares.append(prepare)
        for count, kept in ((2 * f - 1, False), (2 * f, True)):
            proof = PreparedProof(pre_prepare=pp, prepares=prepares[:count])
            assert kept == offer_view_change(
                cluster, target, stable_seqno=0, checkpoint_proof=[], prepared=[proof]
            ), (f, count)
        assert target.counters.get("view_change_invalid") == 1


def test_checkpoint_proof_must_be_quorum():
    for f in (1, 2):
        cluster = make_rig(f)
        target = cluster.replica("R1")
        checkpoints = [
            signed_checkpoint(cluster, sender)
            for sender in cluster.config.replica_ids[: 2 * f + 1]
        ]
        for count, kept in ((2 * f, False), (2 * f + 1, True)):
            assert kept == offer_view_change(
                cluster, target, stable_seqno=16, checkpoint_proof=checkpoints[:count], prepared=[]
            ), (f, count)
        assert target.counters.get("view_change_invalid") == 1


def test_new_view_from_wrong_primary_rejected(rig):
    cluster = rig
    target = cluster.replica("R2")
    vcs = [make_view_change(cluster, sender) for sender in ("R1", "R2", "R3")]
    nv = NewView(view=1, view_changes=vcs, pre_prepares=[], primary_id="R3")
    nv.sig = cluster.sigs.keygen("R3").sign(nv.signable_bytes())
    target.view_changes.on_new_view(nv, "R3")
    assert target.view == 0  # primary(1) is R1, not R3


def test_new_view_with_tampered_o_rejected(rig):
    cluster = rig
    target = cluster.replica("R2")
    vcs = [make_view_change(cluster, sender) for sender in ("R1", "R2", "R3")]
    # Correct O would be empty (no prepared proofs, min_s == max_s == 0);
    # a primary that sneaks in an extra pre-prepare must be rejected.
    bogus_request = Request(client_id="evil", reqid=1, op=b"inject")
    extra = PrePrepare(view=1, seqno=1, requests=[bogus_request], nondet=b"", primary_id="R1")
    extra.sig = cluster.sigs.keygen("R1").sign(extra.signable_bytes())
    nv = NewView(view=1, view_changes=vcs, pre_prepares=[extra], primary_id="R1")
    nv.sig = cluster.sigs.keygen("R1").sign(nv.signable_bytes())
    target.view_changes.on_new_view(nv, "R1")
    assert target.view == 0
    assert target.counters.get("new_view_bad_o") == 1


def offer_new_view(cluster, target, votes):
    """R1's NEW-VIEW for view 1 carrying ``votes`` valid VIEW-CHANGEs."""
    vcs = [make_view_change(cluster, s) for s in cluster.config.replica_ids[1 : votes + 1]]
    nv = NewView(view=1, view_changes=vcs, pre_prepares=[], primary_id="R1")
    nv.sig = cluster.sigs.keygen("R1").sign(nv.signable_bytes())
    target.view_changes.on_new_view(nv, "R1")
    return target.view


def test_new_view_with_insufficient_view_changes_rejected():
    for f in (1, 2):
        cluster = make_rig(f)
        assert offer_new_view(cluster, cluster.replica("R2"), votes=2 * f) == 0, f


def test_valid_new_view_adopted():
    for f in (1, 2):
        cluster = make_rig(f)
        assert offer_new_view(cluster, cluster.replica("R2"), votes=2 * f + 1) == 1, f


def test_liveness_rule_joins_after_f_plus_one():
    for f in (1, 2):
        cluster = make_rig(f)
        target = cluster.replica("R3")
        senders = [r for r in cluster.config.replica_ids if r != "R3"][: f + 1]
        for sender in senders[:f]:
            target.view_changes.on_view_change(
                make_view_change(cluster, sender, new_view=2), sender
            )
        assert not target.view_changes.in_view_change, f  # f < f+1
        target.view_changes.on_view_change(
            make_view_change(cluster, senders[f], new_view=2), senders[f]
        )
        assert target.view_changes.in_view_change, f  # f+1 demand view 2: join
        assert target.view_changes.pending_view == 2
