"""Client-id -> client-table shard: a pure function of the id and
``client_shards``, memoised per manager.  A memo hit must be
indistinguishable from a fresh hash (replicas that have and have not seen a
client must agree on where its reply lives), and the memo belongs to one
manager."""

import hashlib

from repro.base.statemgr import AbstractStateManager
from repro.crypto.digest import DIGEST_STATS

CLIENTS = [f"C{i}" for i in range(40)] + ["", "client-é", "C0" * 50]


def _manager(client_shards, num_objects=8):
    return AbstractStateManager(
        num_objects, lambda index: b"", arity=4, client_shards=client_shards
    )


def _expected(client_id, num_objects, client_shards):
    stable = int.from_bytes(hashlib.sha256(client_id.encode()).digest()[:4], "big")
    return num_objects + stable % client_shards


def test_memo_hit_equals_fresh_hash_for_colliding_ids():
    warm = _manager(client_shards=4)
    first = [warm._shard_of(client_id) for client_id in CLIENTS]
    again = [warm._shard_of(client_id) for client_id in CLIENTS]
    fresh = [_manager(client_shards=4)._shard_of(client_id) for client_id in CLIENTS]
    assert first == again == fresh == [_expected(c, 8, 4) for c in CLIENTS]
    # 43 ids over 4 shards: every shard is shared, so collisions are covered.
    assert set(first) == {8, 9, 10, 11}


def test_managers_with_different_shard_counts_do_not_share_a_memo():
    four, five = _manager(client_shards=4), _manager(client_shards=5)
    wide = _manager(client_shards=4, num_objects=16)
    for client_id in CLIENTS:
        assert four._shard_of(client_id) == _expected(client_id, 8, 4)
        assert five._shard_of(client_id) == _expected(client_id, 8, 5)
        assert wide._shard_of(client_id) == _expected(client_id, 16, 4)
    assert any(four._shard_of(c) != five._shard_of(c) for c in CLIENTS)


def test_a_client_is_hashed_once_per_manager():
    manager = _manager(client_shards=4)
    before = DIGEST_STATS.get("digests")
    manager.last_recorded("C0")
    assert DIGEST_STATS.get("digests") == before + 1
    manager.record_reply("C0", 1, b"reply")
    manager.last_recorded("C0")
    assert DIGEST_STATS.get("digests") == before + 1
    manager.last_recorded("C1")
    assert DIGEST_STATS.get("digests") == before + 2
    assert manager.last_recorded("C0") == (1, b"reply")
