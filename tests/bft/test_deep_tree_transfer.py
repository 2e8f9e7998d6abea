"""State transfer over a deep partition tree (1024+ objects, 3+ levels):
the hierarchical walk prunes whole subtrees."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.testing import encode_set, kv_cluster


def test_transfer_scales_with_tree_depth():
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config, num_slots=1024)
    service = cluster.service("R0")
    assert service.manager.num_levels() >= 3  # depth check: arity 4 over 1024+

    client = cluster.client("C0")
    # Touch a scattered handful of the 1024 objects.
    for index in (0, 100, 500, 900, 1023):
        client.invoke(encode_set(index, b"seed"), timeout=60)
    cluster.settle(1.0)

    cluster.crash("R3")
    for round_number in range(30):
        client.invoke(encode_set(500, bytes([round_number])), timeout=60)
    cluster.restart("R3")
    cluster.settle(5.0)

    replica = cluster.replica("R3")
    assert replica.counters.get("state_transfers_completed") >= 1
    # Only the dirty object plus the touched client-table shards were
    # fetched — not the 1024-object array...
    assert replica.counters.get("objects_fetched") <= 8
    # ...after a walk that descended a few tree paths, not 1024 leaves.
    meta_queries = replica.counters.get("fetch_meta_sent")
    assert meta_queries <= 6 * service.manager.num_levels()
    states = {
        rid: tuple(cluster.service(rid).cells) for rid in cluster.hosts
    }
    assert len(set(states.values())) == 1


def test_checkpoint_cost_independent_of_state_size():
    """COW checkpointing touches only modified objects, even with a large
    array (the paper's argument for incremental checkpoints)."""
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config, num_slots=1024)
    client = cluster.client("C0")
    for i in range(16):
        client.invoke(encode_set(7, bytes([i])), timeout=60)
    cluster.settle(1.0)
    manager = cluster.service("R0").manager
    # Two checkpoints, one hot object: digest work stays tiny.
    assert manager.counters.get("checkpoint_digests") <= 8
    assert manager.counters.get("cow_copies") <= 8
