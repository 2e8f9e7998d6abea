"""Every vote threshold in ``repro.bft`` refuses one vote too few and accepts
exactly enough, at (n=4, f=1) and at (n=7, f=2).

One row per comparison that has no boundary test of its own elsewhere; the
other sites are checked the same way, at both sizes, next to the code they
belong to (``test_log.py``, ``test_viewchange_validation.py``,
``test_txn.py``).  A row's probe builds a fresh fixture, offers exactly
``votes`` valid votes to the site and says whether the site acted.  Running
at f=2 is what catches a threshold written as its f=1 number: there the
refused count is already above it.  docs/determinism.md, "What guards what",
lists every site with the test that guards it.
"""

from types import SimpleNamespace

import pytest

from repro.bft.fusion import FusedBackupTier
from repro.bft.messages import (
    CheckpointCert,
    Commit,
    ParityUpdate,
    PrePrepare,
    Reply,
    Request,
    SpecReply,
    Status,
    ViewChange,
)
from repro.bft.replica import verify_checkpoint_cert
from repro.bft.sharding import sharded_kv_cluster, sharded_recording_cluster
from repro.bft.testing import encode_get, encode_set, kv_cluster
from repro.bft.txn import (
    TXN_COMMITTED,
    VOTE_COMMIT,
    TxnCoordinator,
    encode_txn_decide,
    encode_txn_prepare,
)
from tests.conftest import config_for, signed_checkpoint

DIGEST = b"\x01" * 32


def mac(cluster, sender, receiver, message):
    message.auth = cluster.keys.make_authenticator(
        sender, [receiver], message.signable_bytes()
    )
    return message


# -- probes: (config, votes) -> did the site act? --------------------------------


def checkpoint_cert_verifies(config, votes):
    cluster = kv_cluster(config=config)
    proof = [signed_checkpoint(cluster, rid) for rid in config.replica_ids[:votes]]
    cert = CheckpointCert(seqno=16, state_digest=DIGEST, proof=proof)
    return verify_checkpoint_cert(cert, config, cluster.sigs, cluster.service("R0"))


def checkpoint_stabilises(config, votes):
    cluster = kv_cluster(config=config)
    replica = cluster.replica("R0")
    for rid in config.replica_ids[1 : votes + 1]:
        replica.on_checkpoint(signed_checkpoint(cluster, rid), rid)
    return replica.stable_seqno == 16


def _client_accepts(config, votes, reply_cls, read_only):
    cluster = kv_cluster(config=config)
    client = cluster.client("C0")
    answered = []
    op = encode_get(0) if read_only else encode_set(0, b"v")
    reqid = client.invoke_async(op, answered.append, read_only=read_only)
    extra = {"read_only": True} if read_only else {}
    for rid in config.replica_ids[:votes]:
        reply = reply_cls(
            view=0, reqid=reqid, client_id="C0", replica_id=rid, result=b"r", **extra
        )
        client.on_message(mac(cluster, rid, "C0", reply), rid)
    return answered == [b"r"]


def client_accepts_replies(config, votes):
    return _client_accepts(config, votes, Reply, read_only=False)


def client_accepts_read_only_replies(config, votes):
    return _client_accepts(config, votes, Reply, read_only=True)


def client_accepts_tentative_replies(config, votes):
    return _client_accepts(config, votes, SpecReply, read_only=False)


def coordinator_certifies_vote(config, votes):
    """The base client hands over a result after f+1 matching replies, so no
    run through the network reaches this check with fewer: call it directly."""
    shard_client = SimpleNamespace(
        last_replies={rid: VOTE_COMMIT for rid in config.replica_ids[:votes]},
        _current=None,
        invoke_async=lambda op, callback: 0,
    )
    coordinator = TxnCoordinator(
        "C0:1", {0: [(1, b"a")]}, {0: shard_client}, config, lambda committed: None
    )
    coordinator._on_vote(0, VOTE_COMMIT)
    return coordinator.decision is True


def factory_built_participant_applies_decide(config, votes):
    """``test_txn.py`` pins the participant's certificate check on a service
    it builds itself; this goes through both cluster factories, which must
    hand the participant the configuration's f+1 and not a default."""
    acted = []
    for system in (
        sharded_kv_cluster(2, config=config),
        sharded_recording_cluster(2, config=config)[0],
    ):
        service = system.clusters[0].service("R0")
        certificate = [(0, config.replica_ids[:votes])]
        for op in (
            encode_txn_prepare("t1", [(1, b"a")]),
            encode_txn_decide("t1", True, certificate),
        ):
            result = service.execute(op, client_id="C0", nondet=b"", read_only=False)
        acted.append(result == TXN_COMMITTED)
    assert acted[0] == acted[1], "the two factories disagree"
    return acted[0]


def committed_batch_is_retransmitted(config, votes):
    cluster = kv_cluster(config=config)
    replica = cluster.replica("R0")
    request = Request(client_id="C0", reqid=1, op=b"op")
    pre_prepare = PrePrepare(view=0, seqno=1, requests=[request], nondet=b"", primary_id="R0")
    slot = replica.log.slot(0, 1)
    slot.pre_prepare = pre_prepare
    for rid in config.replica_ids[:votes]:
        slot.commits[rid] = Commit(
            view=0, seqno=1, digest=pre_prepare.batch_digest(), replica_id=rid
        )
    replica.committed[1] = pre_prepare
    replica.last_executed = 1
    lagging = Status(
        replica_id="R1", view=0, stable_seqno=0, last_executed=0, in_view_change=False
    )
    replica.on_message(mac(cluster, "R1", "R0", lagging), "R1")
    return replica.counters.get("retransmissions") == 1


def new_primary_sends_new_view(config, votes):
    cluster = kv_cluster(config=config)
    manager = cluster.replica("R1").view_changes
    for rid in config.replica_ids[:votes]:
        vote = ViewChange(
            new_view=1, stable_seqno=0, checkpoint_proof=[], prepared=[], replica_id=rid
        )
        vote.sig = cluster.sigs.keygen(rid).sign(vote.signable_bytes())
        manager._record(vote)
    manager._try_new_view(1)
    return cluster.replica("R1").counters.get("new_views_sent") == 1


def fused_node_takes_parity_update(config, votes):
    sharded = sharded_kv_cluster(2, config=config)
    cluster = sharded.clusters[1]
    node = FusedBackupTier(sharded).node
    node.frozen = True  # a certified update is then buffered, nothing else moves
    proof = [signed_checkpoint(cluster, rid, 32) for rid in config.replica_ids[: config.quorum]]
    cert = CheckpointCert(seqno=32, state_digest=DIGEST, proof=proof)
    for rid in config.replica_ids[:votes]:
        update = ParityUpdate(
            shard=1, base_seqno=16, seqno=32, slot_width=node.tier.slot_width,
            num_leaves=node.tier.num_leaves, deltas=[(0, b"\x01")], cert=cert,
        )
        node.on_message(1, mac(cluster, rid, node.node_id, update), rid)
    return node.counters.get("fusion_updates_buffered") == 1


SITES = {
    "replica.verify_checkpoint_cert": (checkpoint_cert_verifies, "quorum"),
    "replica._record_checkpoint_vote": (checkpoint_stabilises, "quorum"),
    "client.on_message-ordered": (client_accepts_replies, "weak_quorum"),
    "client.on_message-read-only": (client_accepts_read_only_replies, "quorum"),
    "client._on_spec_reply": (client_accepts_tentative_replies, "quorum"),
    "txn.TxnCoordinator._on_vote": (coordinator_certifies_vote, "weak_quorum"),
    "txn.TxnParticipant-from-factory": (
        factory_built_participant_applies_decide,
        "weak_quorum",
    ),
    "catchup.on_status": (committed_batch_is_retransmitted, "quorum"),
    "viewchange._try_new_view": (new_primary_sends_new_view, "quorum"),
    "fusion.on_parity_update": (fused_node_takes_parity_update, "weak_quorum"),
}


@pytest.mark.parametrize("f", (1, 2))
@pytest.mark.parametrize("site", sorted(SITES))
def test_one_vote_short_is_refused_and_exactly_enough_accepted(site, f):
    probe, threshold = SITES[site]
    config = config_for(f)
    needed = getattr(config, threshold)
    assert not probe(config, needed - 1), f"{site} acted on {needed - 1} of {needed} votes"
    assert probe(config, needed), f"{site} ignored {needed} votes"
