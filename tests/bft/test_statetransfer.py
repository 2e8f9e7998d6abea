"""Hierarchical state transfer: lagging replicas fetch only what changed (E9)."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.messages import (
    Checkpoint,
    CheckpointCert,
    Commit,
    MetaReply,
    ObjectReply,
    TransferRoot,
)
from repro.bft.replica import Replica
from repro.bft.statetransfer import _RETRY
from repro.bft.testing import KVStateMachine, encode_set
from repro.crypto.digest import digest

from tests.conftest import assert_converged, kv_cluster, signed_checkpoint


def run_ops(cluster, client, count, width=8, tag=0):
    for i in range(count):
        client.invoke(encode_set(i % width, bytes([tag, i % 251])), timeout=60)


def test_lagging_replica_catches_up_via_transfer():
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config)
    client = cluster.client("C0")
    run_ops(cluster, client, 5)
    cluster.crash("R3")
    run_ops(cluster, client, 40)  # far beyond R3's log window
    cluster.restart("R3")
    cluster.settle(5.0)
    r3 = cluster.replica("R3")
    assert r3.counters.get("state_transfers_completed") >= 1
    assert r3.last_executed >= 40
    assert_converged(cluster)


def test_transfer_fetches_only_modified_objects():
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config, num_slots=32)
    client = cluster.client("C0")
    run_ops(cluster, client, 10, width=32)
    cluster.crash("R3")
    # Touch only 2 of 32 objects while R3 is away.
    for i in range(40):
        client.invoke(encode_set(i % 2, bytes([7, i % 251])), timeout=60)
    cluster.restart("R3")
    cluster.settle(5.0)
    r3 = cluster.replica("R3")
    fetched = r3.counters.get("objects_fetched")
    assert 1 <= fetched <= 8, f"expected a handful of objects, fetched {fetched}"
    assert_converged(cluster)


def test_transfer_verifies_object_digests():
    """A fetched object whose bytes do not match the certified leaf digest is
    rejected (donor cannot poison the fetcher)."""
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config)
    client = cluster.client("C0")
    run_ops(cluster, client, 5)
    cluster.crash("R3")
    run_ops(cluster, client, 30)

    from repro.bft.messages import ObjectReply

    def corrupt_object_replies(src, dst, message):
        if isinstance(message, ObjectReply) and dst == "R3":
            return ObjectReply(
                replica_id=message.replica_id,
                index=message.index,
                seqno=message.seqno,
                data=message.data + b"POISON",
            )
        return message

    remove = cluster.network.add_interceptor(corrupt_object_replies)
    cluster.restart("R3")
    cluster.settle(1.0)
    r3 = cluster.replica("R3")
    assert r3.counters.get("object_reply_bad_digest") >= 1
    assert r3.counters.get("state_transfers_completed") == 0
    remove()
    cluster.settle(5.0)
    assert cluster.replica("R3").counters.get("state_transfers_completed") >= 1
    assert_converged(cluster)


def test_transfer_survives_donor_churn():
    """Donors GC the session checkpoint mid-fetch; the fetcher re-anchors."""
    config = BFTConfig(checkpoint_interval=4, log_window=8)
    cluster = kv_cluster(config=config)
    client = cluster.client("C0")
    run_ops(cluster, client, 6)
    cluster.crash("R3")
    run_ops(cluster, client, 30)
    cluster.restart("R3")
    # Keep writing while R3 transfers, forcing checkpoint churn.
    run_ops(cluster, client, 30, tag=1)
    cluster.settle(5.0)
    assert cluster.replica("R3").last_executed >= 60
    assert_converged(cluster)


# -- the ways a session ends ----------------------------------------------------------


def lagging_session(recovering=False, extra=0):
    """R3 executed to 8 and saw none of the next ``8 + extra`` commits or
    checkpoint votes; the group's certificate at 16 has just formed.  R3
    opens a session toward it.  Returns the cluster, R3, the certificate and
    the commits R3 was denied (its ``on_message`` arguments), in order."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=16))
    client = cluster.client("C0")
    run_ops(cluster, client, 8)
    cluster.settle(0.5)
    held = []

    def withhold(src, dst, message):
        if dst == "R3" and isinstance(message, (Commit, Checkpoint)):
            held.append((message, src))
            return None
        return message

    release = cluster.network.add_interceptor(withhold)
    run_ops(cluster, client, 8 + extra, tag=1)
    r0, r3 = cluster.replica("R0"), cluster.replica("R3")
    assert cluster.sim.run_until_condition(lambda: r0.stable_seqno >= 16, timeout=1.0)
    release()
    assert r3.last_executed == 8
    if recovering:
        r3.recovering = True
    r3.transfer.start(r0.stable_cert)
    assert r3.transfer.active
    commits = [(message, src) for message, src in held if isinstance(message, Commit)]
    return cluster, r3, r0.stable_cert, commits


def quorum_cert(cluster, seqno, state_digest):
    """A certificate at ``seqno`` that a quorum validly signed."""
    config = cluster.config
    proof = [
        signed_checkpoint(cluster, rid, seqno, state_digest)
        for rid in config.replica_ids[: config.quorum]
    ]
    return CheckpointCert(seqno=seqno, state_digest=state_digest, proof=proof)


def test_a_state_that_already_matches_its_anchor_advances_without_a_fetch():
    """A quorum certifies at 16 the state R3 already holds at 8 (as if the
    batches between changed nothing): the session installs nothing and adopts
    the checkpoint at once."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=16))
    run_ops(cluster, cluster.client("C0"), 8)
    cluster.settle(0.5)
    r3 = cluster.replica("R3")
    _lm, root = r3.service.manager.current_node(0, 0)
    r3.transfer.start(quorum_cert(cluster, 16, root))
    assert not r3.transfer.active
    assert (r3.last_executed, r3.stable_seqno) == (16, 16)
    assert r3.counters.get("state_transfers_completed") == 1
    assert r3.counters.get("fetch_meta_sent") == 0


def test_a_transfer_that_execution_overtook_installs_nothing():
    """R3 executes the commits it missed while its session fetches: it
    takes the anchor's checkpoint itself, which ends the session, and the
    executed state is left alone."""
    cluster, r3, cert, commits = lagging_session()
    for message, src in commits:
        r3.on_message(message, src)
    assert r3.last_executed == 16
    cluster.settle(1.0)
    assert not r3.transfer.active
    assert r3.counters.get("state_transfers_completed") == 0
    assert r3.service.manager.root_digest(16) == cert.state_digest
    assert r3.last_executed == 16
    assert r3.service.cells == cluster.service("R0").cells


def test_a_recovering_replica_that_executed_past_its_anchor_finishes_at_its_anchor():
    """A recovering R3 executes through its anchor at 16 to 17: its own
    checkpoint at 16 ends the session and matches the certificate, so it
    finishes recovering there, with nothing installed or re-anchored."""
    cluster, r3, _cert, commits = lagging_session(recovering=True, extra=1)
    for message, src in commits:
        r3.on_message(message, src)
    assert r3.last_executed == 17
    cluster.settle(0.5)
    assert r3.counters.get("recoveries_completed") == 1
    assert r3.counters.get("fetch_root_sent") == 0
    assert r3.counters.get("state_transfer_stale_anchors") == 0
    assert r3.counters.get("state_transfers_completed") == 0
    assert not r3.recovering and not r3.transfer.active
    assert r3.last_executed == 17
    assert r3.service.cells == cluster.service("R0").cells


def test_a_recovering_replica_carried_past_its_anchor_signs_the_groups_roots():
    """R3 executes the commits it missed, past its anchor at 16, while it
    recovers; then four rounds write slots 0-3 only, so leaf 7 keeps the lm
    16 the group gave it.  R3 finishes recovering, its root at every stable
    checkpoint is the group's, and it asks for roots through one chain at
    most."""
    cluster, r3, _cert, commits = lagging_session(recovering=True, extra=1)
    for message, src in commits:
        r3.on_message(message, src)
    client, r0 = cluster.client("C0"), cluster.replica("R0")
    began = cluster.sim.now()
    for r in range(4):
        run_ops(cluster, client, 8, width=4, tag=2 + r)
        cluster.settle(1.0)
        assert not r3.recovering
        stable = r0.stable_seqno
        assert stable == 24 + 8 * r
        assert r3.service.manager.root_digest(stable) == r0.service.manager.root_digest(stable)
    one_chain = 1 + (cluster.sim.now() - began) / (3 * _RETRY)
    assert r3.counters.get("fetch_root_sent") <= one_chain
    assert r3.counters.get("state_transfer_stale_anchors") == 0


def test_a_second_root_fetch_supersedes_the_first_chain():
    """Two ``begin_from_root`` calls that no donor answers make one chain:
    two sends, then one retry every three retry periods."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=16))
    run_ops(cluster, cluster.client("C0"), 8)
    cluster.settle(0.5)
    cluster.network.add_interceptor(
        lambda src, dst, message: None
        if dst == "R3" and isinstance(message, TransferRoot)
        else message
    )
    r3 = cluster.replica("R3")
    assert r3.counters.get("fetch_root_sent") == 0
    r3.transfer.begin_from_root(8)
    r3.transfer.begin_from_root(8)
    cluster.settle(2.41)
    assert r3.counters.get("fetch_root_sent") == 2 + 10


def test_a_repair_walk_that_execution_outran_installs_nothing():
    """Never install below the execution point: R3 recovers at its anchor
    16 with leaf 7's digest rotted in its tree, so it opens a repair walk,
    and executes 17 before the walk completes.  Installing the anchor now
    would roll 17 back: the walk installs nothing and re-anchors."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=16))
    client = cluster.client("C0")
    run_ops(cluster, client, 8)
    cluster.settle(0.5)
    r0, r3 = cluster.replica("R0"), cluster.replica("R3")
    manager = r3.service.manager
    manager.tree.update_leaves([(7, digest(b"rot"), 8)])
    run_ops(cluster, client, 8, width=4, tag=1)
    cluster.settle(0.5)
    assert (r0.stable_seqno, r3.last_executed) == (16, 16)
    assert manager.root_digest(16) != r0.stable_cert.state_digest
    held = []

    def withhold(src, dst, message):
        if dst == "R3" and isinstance(message, Commit):
            held.append((message, src))
            return None
        return message

    release = cluster.network.add_interceptor(withhold)
    run_ops(cluster, client, 1, tag=2)
    release()
    r3.recovering = True
    r3.transfer.start(r0.stable_cert)
    assert r3.transfer.active
    for message, src in held:
        r3.on_message(message, src)
    assert r3.last_executed == 17
    cluster.settle(0.5)
    assert r3.counters.get("state_transfer_stale_anchors") == 1
    assert r3.counters.get("state_transfers_completed") == 0
    assert manager.counters.get("state_transfer_installs") == 0
    assert r3.last_executed == 17
    assert r3.service.cells == cluster.service("R0").cells


def test_an_install_whose_root_mismatches_restarts_the_walk(monkeypatch):
    """A leaf the walk found current changes before the install: the
    installed root is not the certificate's, so nothing is adopted and the
    walk restarts against the same certificate, fetching that leaf too."""
    cluster, r3, cert, _commits = lagging_session()
    manager = r3.service.manager
    install = manager.install_fetched

    def install_after_a_change(objects, seqno, apply_objects):
        monkeypatch.setattr(manager, "install_fetched", install)
        assert 31 not in objects
        manager.tree.update_leaves([(31, digest(b"changed"), seqno)])
        return install(objects, seqno, apply_objects)

    monkeypatch.setattr(manager, "install_fetched", install_after_a_change)
    cluster.settle(1.0)
    assert r3.counters.get("state_transfer_restarts") == 1
    assert r3.counters.get("state_transfers_started") == 2
    assert r3.counters.get("state_transfers_completed") == 1
    assert (r3.last_executed, r3.stable_seqno) == (16, 16)
    assert manager.current_node(0, 0)[1] == cert.state_digest
    assert r3.service.cells == cluster.service("R0").cells


def test_a_recovering_replica_past_a_certificate_it_discarded_re_anchors():
    """A recovering replica offered a certificate older than every
    checkpoint it still holds cannot compare its state with it: it asks for
    one at or past its execution point and finishes against that."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=16))
    client = cluster.client("C0")
    run_ops(cluster, client, 16)
    cluster.settle(0.5)
    old = cluster.replica("R0").stable_cert
    run_ops(cluster, client, 8, tag=1)
    cluster.settle(0.5)
    r3 = cluster.replica("R3")
    assert old.seqno == 16 and r3.service.manager.checkpoint_seqnos() == [24]
    r3.recovering = True
    r3.transfer.start(old)
    assert r3.counters.get("fetch_root_sent") == 1
    assert r3.counters.get("state_transfer_stale_anchors") == 0
    cluster.settle(0.5)
    assert not r3.recovering
    assert r3.counters.get("recoveries_completed") == 1
    assert r3.counters.get("state_transfers_started") == 0


# -- the anchor a session starts from --------------------------------------------------


def forged_tree_replies(sender, state):
    """A ``TransferRoot`` anchoring ``state``'s checkpoint 0 with an empty
    proof, and a reply for every node and leaf of its partition tree."""
    manager = state.manager
    cert = CheckpointCert(seqno=0, state_digest=manager.root_digest(0), proof=[])
    replies = [TransferRoot(replica_id=sender, cert=cert)]
    arity = manager.tree.arity
    for level in range(manager.num_levels()):
        for index in range(arity**level):
            children = manager.get_meta(0, level, index)
            if children is not None:
                replies.append(
                    MetaReply(replica_id=sender, seqno=0, level=level, index=index, children=children)
                )
    for index in range(manager.total_leaves):
        data = manager.get_object_at(0, index)
        replies.append(ObjectReply(replica_id=sender, index=index, seqno=0, data=data))
    return replies


def test_a_forged_anchor_cannot_recover_a_replica_to_a_clients_state(monkeypatch):
    """A rebooted replica asks its first donor for a certificate; with that
    donor crashed, a client answers with a genesis-labelled certificate for
    its own state and serves the whole tree.  The rebuilt replica must turn
    the anchor away and recover to the group's state at its floor."""
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config, num_slots=8)
    run_ops(cluster, cluster.client("C0"), 20)
    cluster.settle(1.0)
    evil = KVStateMachine(num_slots=8)
    for index in range(8):
        evil.execute(encode_set(index, b"EVIL"), "X", b"")
    evil.manager.take_checkpoint(0)
    replies = forged_tree_replies("X", evil)
    cluster.client("X")
    finished = []
    original = Replica.finish_recovery

    def spy(replica):
        finished.append((replica.node_id, replica.last_executed, list(replica.service.cells)))
        original(replica)

    monkeypatch.setattr(Replica, "finish_recovery", spy)
    held_evil = []

    def attack():
        held_evil.append(b"EVIL" in cluster.service("R3").cells)
        for reply in replies:
            cluster.network.send("X", "R3", reply)

    cluster.crash("R0")
    assert cluster.recover("R3")
    for tick in range(200):
        cluster.sim.schedule(0.02 + tick * 0.005, attack)
    cluster.settle(5.0)
    r3 = cluster.replica("R3")
    assert not any(held_evil) and b"EVIL" not in r3.service.cells
    assert r3.counters.get("bad_checkpoint_cert") >= 1
    assert [rid for rid, _seqno, _cells in finished] == ["R3"]
    _rid, seqno, cells = finished[0]
    assert seqno >= 16
    r1 = cluster.replica("R1").service.manager
    assert cells == [r1.get_object_at(seqno, index) for index in range(8)]
