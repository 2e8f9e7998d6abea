"""Byzantine fault tolerance (E7): f scripted-malicious replicas are masked."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.testing import encode_get, encode_set
from repro.faults import (
    AvailabilityProbe,
    drop_fraction_from,
    make_equivocating_primary,
    make_lying_checkpointer,
    make_result_corruptor,
    make_vote_corruptor,
)

from tests.conftest import kv_cluster


def correct_states_agree(cluster, exclude):
    states = {
        rid: b"\x1f".join(cluster.service(rid).cells)
        for rid in cluster.hosts
        if rid != exclude
    }
    return len(set(states.values())) == 1


def test_equivocating_primary_cannot_split_the_service():
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"seed"))
    make_equivocating_primary(cluster.replica("R0"))
    for i in range(10):
        assert client.invoke(encode_set(i % 4, bytes([i])), timeout=60) == b"OK"
    cluster.settle(2.0)
    # Safety: the three correct replicas never diverge.
    assert correct_states_agree(cluster, exclude="R0")


def test_result_corruptor_is_outvoted():
    cluster = kv_cluster()
    make_result_corruptor(cluster.replica("R2"))
    client = cluster.client("C0")
    client.invoke(encode_set(1, b"truth"))
    assert client.invoke(encode_get(1)) == b"truth"
    assert cluster.replica("R2").counters.get("byzantine_corrupt_results") >= 1


def test_lying_checkpointer_cannot_stall_garbage_collection():
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config)
    make_lying_checkpointer(cluster.replica("R3"))
    client = cluster.client("C0")
    for i in range(30):
        client.invoke(encode_set(i % 4, bytes([i])), timeout=60)
    cluster.settle(2.0)
    for rid in ("R0", "R1", "R2"):
        assert cluster.replica(rid).stable_seqno >= 16
    assert cluster.replica("R3").counters.get("byzantine_checkpoint_lies") >= 1


def test_vote_corruptor_is_harmless():
    cluster = kv_cluster()
    make_vote_corruptor(cluster.replica("R1"))
    client = cluster.client("C0")
    for i in range(10):
        assert client.invoke(encode_set(i % 4, bytes([i])), timeout=60) == b"OK"
    cluster.settle(1.0)
    assert correct_states_agree(cluster, exclude="R1")


# -- each injector fires, and the correct replicas refuse what it sends --------
#
# The safety tests above pass just as well when an injector never fires, so a
# send path that routes around the hook it installs goes unnoticed.  These
# count the attacks and check where the correct replicas turned them down.


def run_sets(cluster, count=10):
    client = cluster.client("C0")
    for i in range(count):
        assert client.invoke(encode_set(i % 4, bytes([i])), timeout=60) == b"OK"
    cluster.settle(1.0)


def test_equivocating_primary_fires_and_is_deposed():
    cluster = kv_cluster()
    make_equivocating_primary(cluster.replica("R0"))
    run_sets(cluster)
    assert cluster.replica("R0").counters.get("byzantine_equivocations") > 0
    # No correct replica executes R0's split first batch in R0's view: the
    # instance stalls, and all three vote R0 out.
    for rid in ("R1", "R2", "R3"):
        replica = cluster.replica(rid)
        split = replica.log.get(0, 1)
        assert split is not None and split.pre_prepare is not None and not split.executed
        assert replica.view >= 1 and replica.counters.get("view_changes_completed") >= 1
        assert replica.config.primary(replica.view) != "R0"
    assert correct_states_agree(cluster, exclude="R0")


def test_vote_corruptor_fires_and_its_votes_never_count():
    cluster = kv_cluster()
    make_vote_corruptor(cluster.replica("R1"))
    run_sets(cluster)
    assert cluster.replica("R1").counters.get("byzantine_corrupt_votes") > 0
    for rid in ("R0", "R2", "R3"):
        slots = [slot for slot in cluster.replica(rid).log.slots_for_view(0) if slot.executed]
        assert slots
        for slot in slots:
            # R1's votes arrive (validly signed) but name no batch anyone proposed.
            assert "R1" in slot.commits
            assert "R1" not in {p.replica_id for p in slot.matching_prepares()}
            assert "R1" not in {c.replica_id for c in slot.matching_commits()}


def test_lying_checkpointer_fires_and_is_left_out_of_every_certificate():
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=16))
    # R0 sorts first, so an honest R0 would be in every certificate's proof.
    make_lying_checkpointer(cluster.replica("R0"))
    run_sets(cluster)
    assert cluster.replica("R0").counters.get("byzantine_checkpoint_lies") > 0
    for rid in ("R1", "R2", "R3"):
        cert = cluster.replica(rid).stable_cert
        assert cert is not None and cert.seqno >= 8
        assert [c.replica_id for c in cert.proof] == ["R1", "R2", "R3"]


def test_flaky_network_from_one_replica():
    cluster = kv_cluster(seed=5)
    remove = drop_fraction_from(cluster.network, "R2", 0.7)
    client = cluster.client("C0")
    for i in range(10):
        assert client.invoke(encode_set(i % 4, bytes([i])), timeout=60) == b"OK"
    remove()
    cluster.settle(3.0)
    assert correct_states_agree(cluster, exclude="R2")


def test_availability_probe_full_health():
    cluster = kv_cluster()
    probe = AvailabilityProbe(
        cluster.sim,
        cluster.client("C9"),
        make_op=lambda i: encode_set(i % 8, bytes([i % 251])),
        op_timeout=5.0,
    )
    probe.run(20)
    summary = probe.summary()
    assert summary.availability == 1.0
    assert summary.total == 20


def test_availability_probe_detects_outage():
    """With f+1 = 2 replicas crashed, the service must stall (no quorums);
    restoring one brings it back — the probe sees the outage window."""
    cluster = kv_cluster()
    client = cluster.client("C9")
    probe = AvailabilityProbe(
        cluster.sim, client, make_op=lambda i: encode_set(0, bytes([i % 251])),
        op_timeout=1.0,
    )
    probe.run(3)
    cluster.crash("R2")
    cluster.crash("R3")
    probe.run(3)
    cluster.restart("R2")
    cluster.sim.run_for(1.0)
    probe.run(3)
    summary = probe.summary()
    assert 3 <= summary.succeeded <= 7
    assert summary.outage_spans
