"""Sharded deployments: routing through the shard map, cross-shard 2PC from
the client side, coordinator recovery, and whole-deployment determinism."""

import pytest

from repro.bft.sharding import sharded_kv_cluster
from repro.bft.testing import encode_get, encode_set


def _sharded(num_shards=2, **kwargs):
    kwargs.setdefault("objects_per_shard", 8)
    return sharded_kv_cluster(num_shards, **kwargs)


# -- routing -------------------------------------------------------------------


def test_single_shard_ops_land_on_the_owning_group():
    sharded = _sharded()
    client = sharded.client("C0")
    assert client.invoke(encode_set(1, b"left")) == b"OK"
    assert client.invoke(encode_set(9, b"right")) == b"OK"
    # Global index 9 is shard 1's local slot 1; shard 0's slot 1 holds "left".
    assert sharded.shard(0).service("R0").cells[1] == b"left"
    assert sharded.shard(1).service("R0").cells[1] == b"right"
    assert client.invoke(encode_get(9), read_only=True) == b"right"


def test_out_of_range_index_is_rejected_locally():
    sharded = _sharded()
    with pytest.raises(ValueError):
        sharded.client("C0").invoke(encode_set(16, b"x"))


def test_anything_but_exactly_one_op_is_refused_at_routing():
    """The parent dropped whatever followed the last argument and sent the rest."""
    sharded = _sharded()
    for op in (encode_set(1, b"x") + b"\x00\x00\x00\x07", encode_get(1) + b"\x00",
               encode_set(1, b"x").replace(b"SET", b"PUT")):
        with pytest.raises(ValueError):
            sharded.client("C0").invoke(op)
    assert sharded.client("C0").counters.get("sharded_invokes") == 0


def test_clients_on_different_shards_are_independent():
    sharded = _sharded()
    a, b = sharded.client("A"), sharded.client("B")
    assert a.invoke(encode_set(0, b"a")) == b"OK"
    assert b.invoke(encode_set(8, b"b")) == b"OK"
    assert a.invoke(encode_get(8), read_only=True) == b"b"


# -- cross-shard transactions --------------------------------------------------


def test_cross_shard_commit_applies_on_both_groups():
    sharded = _sharded()
    client = sharded.client("C0")
    decision = client.invoke_txn([(1, b"left"), (9, b"right")])
    assert decision is True
    assert sharded.shard(0).service("R0").cells[1] == b"left"
    assert sharded.shard(1).service("R0").cells[1] == b"right"
    totals = sharded.total_counters()
    assert totals.get("txns_started") == 1
    assert totals.get("txns_committed") == 1
    # One prepare + one decide executed on every replica of both groups.
    assert totals.get("txn_prepares") == 8
    assert totals.get("txn_commits_applied") == 8


def test_single_shard_txn_commits():
    sharded = _sharded()
    assert sharded.client("C0").invoke_txn([(3, b"v")]) is True
    assert sharded.shard(0).service("R0").cells[3] == b"v"


def test_conflicting_transactions_one_commits_one_aborts():
    sharded = _sharded()
    a, b = sharded.client("A"), sharded.client("B")
    outcomes = {}
    a.invoke_txn_async([(1, b"a"), (9, b"a")], lambda ok: outcomes.setdefault("A", ok))
    b.invoke_txn_async([(1, b"b"), (9, b"b")], lambda ok: outcomes.setdefault("B", ok))
    assert sharded.sim.run_until_condition(lambda: len(outcomes) == 2, timeout=30)
    assert sorted(outcomes.values()) == [False, True]
    winner = [name for name, ok in outcomes.items() if ok][0]
    assert sharded.shard(0).service("R0").cells[1] == winner.lower().encode()
    # The loser's abort released its locks: a fresh transaction goes through.
    assert a.invoke_txn([(1, b"again"), (9, b"again")]) is True


def test_txn_with_out_of_range_write_is_rejected_at_routing():
    sharded = _sharded()
    with pytest.raises(ValueError):
        sharded.client("C0").invoke_txn([(1, b"v"), (16, b"v")])
    assert sharded.total_counters().get("txns_started") == 0
    assert sharded.shard(0).service("R0").cells[1] == b""


def test_abandoned_coordinator_decision_still_lands():
    """abandon_txn() retransmits whatever decision the coordinator reached, so
    participants converge even though the coordinating client walked away."""
    sharded = _sharded()
    client = sharded.client("C0")
    box = []
    client.invoke_txn_async([(1, b"v"), (9, b"v")], box.append)
    # Abandon while the prepares are still in flight: no decision was
    # reached, so the retransmitted decision must be the safe abort —
    # participants that already ordered a prepare unlock, and participants
    # that order it late hit the tombstone and never lock at all.
    client.abandon_txn()
    sharded.settle(2.0)
    for shard in range(2):
        for rid in ("R0", "R1", "R2", "R3"):
            participant = sharded.shard(shard).service(rid).participant
            assert participant.decisions.get("C0:1") is False
            assert not participant.locked(1)
    assert box == []  # the abandoned callback never fires
    assert sharded.total_counters().get("txns_abandoned") == 1
    # Nothing leaked: the same slots are immediately usable again.
    assert client.invoke_txn([(1, b"after"), (9, b"after")]) is True


def test_deployment_is_deterministic():
    def run():
        sharded = _sharded()
        client = sharded.client("C0")
        for i in range(6):
            client.invoke(encode_set(i, bytes([i])))
        client.invoke_txn([(2, b"t"), (10, b"t")])
        sharded.settle(1.0)
        return sharded.sim.events_processed, sharded.total_counters().snapshot()

    assert run() == run()
