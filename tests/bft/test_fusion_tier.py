"""Fused-backup tier end to end: parity bootstrap and currency, catastrophic
group loss and certified reconstruction, storage accounting, and the
cluster-wide repair summary.

The destroy here is the real thing — every replica of the victim group is
stopped, cut off, and has its disk wiped in place — so nothing short of the
fused tier's cross-group parity can bring the shard back.
"""

import pytest

from repro.base.fusion import FusionError, pack_block, xor_blocks
from repro.bft.fusion import DEFAULT_SLOT_WIDTH, FusedBackupTier
from repro.bft.messages import ParityUpdate
from repro.bft.recovery import REBOOT_TIME
from repro.bft.sharding import sharded_kv_cluster
from repro.bft.testing import encode_get, encode_set

NUM_SHARDS = 4


def _cluster_with_tier(seed=7, num_shards=NUM_SHARDS):
    sharded = sharded_kv_cluster(num_shards, seed=seed)
    tier = FusedBackupTier(sharded)
    tier.attach()
    sharded.settle(1.0)
    assert tier.ready()
    return sharded, tier


def _write_past_checkpoints(sharded, count=160):
    """Spread ``count`` writes so every shard passes two stable checkpoints
    (checkpoint_interval=16, four shards: 40 seqnos each)."""
    client = sharded.client("C0")
    for i in range(count):
        shard = i % NUM_SHARDS
        key = shard * 16 + (i % 16)
        assert client.invoke(encode_set(key, b"v%d" % i)) == b"OK"
    sharded.settle(2.0)
    return client


def _block_at(cluster, seqno, slot_width, num_leaves):
    """One replica's abstract state at checkpoint ``seqno``, packed."""
    manager = cluster.hosts["R0"].replica.service.manager
    leaves = [
        (manager.get_leaf(seqno, i)[0], manager.get_object_at(seqno, i))
        for i in range(num_leaves)
    ]
    return pack_block(leaves, slot_width)


def test_parity_tracks_stable_checkpoints():
    sharded, tier = _cluster_with_tier()
    _write_past_checkpoints(sharded)
    node = tier.node
    # 160 writes over 4 shards = 40 seqnos each; the last stable checkpoint
    # boundary below that is 32.
    assert dict(sorted(node.applied.items())) == {0: 32, 1: 32, 2: 32, 3: 32}
    totals = tier.total_counters()
    assert totals.get("fusion_updates_applied") >= 2 * NUM_SHARDS
    assert totals.get("fusion_bootstraps") == 1


def test_reconstruction_restores_the_certified_state():
    sharded, tier = _cluster_with_tier()
    client = _write_past_checkpoints(sharded)
    # Pad shard 1 from 40 executed seqnos up to the checkpoint boundary at
    # 48, so the wipe happens with zero un-checkpointed suffix (RPO = 0) and
    # the rebuilt state equals the last acknowledged state byte for byte.
    for _ in range(8):
        assert client.invoke(encode_set(31, b"pad")) == b"OK"
    sharded.settle(2.0)
    assert sharded.sim.run_until_condition(
        lambda: tier.node.applied.get(1) == 48, timeout=20.0
    )
    before = client.invoke(encode_get(17))

    sharded.destroy_group(1)
    assert sharded.sim.run_until_condition(tier.idle, timeout=60.0)

    episodes = tier.reconstructions
    assert len(episodes) == 1
    record = episodes[0]
    assert record.ok is True
    assert record.shard == 1
    assert record.target_seqno == 48
    assert record.blocks_fetched == NUM_SHARDS - 1
    assert record.mttr is not None and record.mttr > 0.0

    # Every rebuilt replica verified against the group's latest checkpoint
    # certificate before resuming.
    cert = tier.node.certs[1]
    assert cert.seqno == 48
    cluster = sharded.shard(1)
    for rid in cluster.config.replica_ids:
        replica = cluster.hosts[rid].replica
        assert replica.stable_seqno == 48
        assert replica.service.manager.tree.root()[1] == cert.state_digest

    # The service resumed and serves the exact pre-destroy value.
    sharded.settle(1.0)
    assert client.invoke(encode_get(17), timeout=20.0) == before

    # And it is a full group again: new writes commit on the rebuilt shard.
    assert client.invoke(encode_set(17, b"after"), timeout=20.0) == b"OK"
    assert client.invoke(encode_get(17)) == b"after"


def test_reconstruction_is_deterministic():
    outcomes = []
    for _ in range(2):
        sharded, tier = _cluster_with_tier(seed=11)
        _write_past_checkpoints(sharded)
        sharded.destroy_group(2)
        assert sharded.sim.run_until_condition(tier.idle, timeout=60.0)
        record = tier.reconstructions[0]
        outcomes.append(
            (
                record.ok,
                record.target_seqno,
                record.blocks_fetched,
                record.bytes_fetched,
                record.mttr,
                sorted(tier.total_counters().snapshot().items()),
            )
        )
    assert outcomes[0] == outcomes[1]


def test_fused_tier_costs_less_than_half_a_replica_per_group():
    """The point of fusion: one parity node spanning S groups costs ~1/S of
    what one extra full replica per group would, and never more than half.

    Measured with realistically-sized objects (near the parity slot width);
    toy byte-sized values would make the fixed per-cell padding dominate and
    say nothing about the regime the tier is built for."""
    sharded = sharded_kv_cluster(NUM_SHARDS, seed=7, objects_per_shard=32)
    tier = FusedBackupTier(sharded)
    tier.attach()
    sharded.settle(1.0)
    client = sharded.client("C0")
    value = bytes(range(84)[:84])  # fills most of the 96-byte parity slot
    for shard in range(NUM_SHARDS):
        for slot in range(32):
            assert client.invoke(encode_set(shard * 32 + slot, value)) == b"OK"
    sharded.settle(2.0)
    assert all(s > 0 for s in tier.node.applied.values())
    fused = tier.storage_bytes()
    full_replicas = tier.abstract_state_bytes()
    assert fused > 0
    assert fused <= 0.5 * full_replicas


def test_repair_status_aggregates_reconstructions():
    sharded, tier = _cluster_with_tier()
    _write_past_checkpoints(sharded)
    sharded.destroy_group(3)
    assert sharded.sim.run_until_condition(tier.idle, timeout=60.0)

    status = sharded.repair_status()
    assert set(status) == {f"shard{i}" for i in range(NUM_SHARDS)} | {
        "reconstructions"
    }
    recon = status["reconstructions"]
    assert len(recon["episodes"]) == 1
    episode = recon["episodes"][0]
    assert episode["shard"] == 3
    assert episode["ok"] is True
    assert recon["mttr"] == pytest.approx(episode["mttr"])


def test_destroy_without_tier_raises():
    sharded = sharded_kv_cluster(2, seed=1)
    sharded.settle(0.2)
    # Without a fused tier the wipe is unrecoverable; destroy still works
    # (the caller may want to demonstrate exactly that) ...
    sharded.destroy_group(0)
    assert sharded.repair_status().get("reconstructions") is None


def test_tier_requires_at_least_two_shards():
    sharded = sharded_kv_cluster(1, seed=1)
    with pytest.raises(FusionError):
        FusedBackupTier(sharded)


def test_feeder_survives_proactive_reboot():
    """Recovery swaps the replica object; the relinked feeder must keep
    feeding parity updates afterwards."""
    sharded, tier = _cluster_with_tier(seed=5)
    _write_past_checkpoints(sharded, count=80)
    cluster = sharded.shard(0)
    cluster.recover("R1")
    sharded.settle(2.0)
    assert cluster.hosts["R1"].replica.fusion_feeder is not None
    before = tier.node.applied[0]
    _write_past_checkpoints(sharded, count=160)
    assert tier.node.applied[0] > before


def test_slot_width_overflow_stalls_loudly():
    """A value too large for the parity cell must not silently corrupt the
    stripe: the feeder refuses to emit the update and counts the stall."""
    sharded = sharded_kv_cluster(2, seed=3)
    tier = FusedBackupTier(sharded, slot_width=DEFAULT_SLOT_WIDTH)
    tier.attach()
    sharded.settle(1.0)
    client = sharded.client("C0")
    # The oversized value must still be live at a checkpoint boundary, so
    # park it in a slot the later writes never touch.
    assert client.invoke(encode_set(7, b"x" * (DEFAULT_SLOT_WIDTH * 2))) == b"OK"
    for i in range(40):
        client.invoke(encode_set(i % 7, b"small"))
    sharded.settle(2.0)
    # Feeder counters live on the replicas; the sharded roll-up sees them.
    totals = sharded.total_counters()
    assert totals.get("fusion_feed_overflow") > 0
    assert tier.node.applied.get(0, 0) == 0  # coverage stalled, loudly


# -- one message object, one MAC vector ---------------------------------------------------

REPLICAS = ["R0", "R1", "R2", "R3"]


@pytest.mark.parametrize("crashed", REPLICAS)
def test_parity_bootstraps_with_any_one_replica_of_a_shard_down(crashed):
    """One fault inside f must not matter — least of all *which* replica it
    hits.  (The fetch used to be re-MAC'd per recipient on one shared object,
    so only the last replica of a shard could ever verify and answer it.)"""
    sharded = sharded_kv_cluster(NUM_SHARDS, seed=7)
    sharded.shard(1).crash(crashed)
    tier = FusedBackupTier(sharded)
    tier.attach()
    sharded.settle(1.0)
    assert tier.ready()


@pytest.mark.parametrize("crashed", REPLICAS)
def test_reconstruction_with_any_one_surviving_donor_down(crashed):
    sharded, tier = _cluster_with_tier()
    _write_past_checkpoints(sharded)
    sharded.shard(0).crash(crashed)
    sharded.destroy_group(2)
    assert sharded.sim.run_until_condition(tier.idle, timeout=60.0)
    record = tier.reconstructions[0]
    assert record.ok is True, record.detail
    # Four concurrent reboots and one block fetch, not four reboots in a row.
    assert record.mttr < 1.5 * REBOOT_TIME
    assert tier.total_counters().get("fusion_replicas_seeded") == 4
    # Nobody was handed a MAC meant for somebody else.
    totals = sharded.total_counters()
    assert totals.get("auth_failed") == 0
    assert totals.get("fusion_auth_failed") == 0


def test_fold_rejects_a_delta_outside_the_block():
    """A delta past the last cell (or before the first) raises on both the
    staged-block and the parity path, never patches a wrong region."""
    node = FusedBackupTier(sharded_kv_cluster(2, seed=1)).node
    width, leaves = node.tier.slot_width, node.tier.num_leaves
    block = bytes(width * leaves)
    for index in (leaves, -1):
        update = ParityUpdate(
            shard=0, base_seqno=16, seqno=32, slot_width=width,
            num_leaves=leaves, deltas=[(index, b"\x01" * width)],
        )
        with pytest.raises(FusionError):
            node._fold(block, update)
    inside = ParityUpdate(
        shard=0, base_seqno=16, seqno=32, slot_width=width,
        num_leaves=leaves, deltas=[(leaves - 1, b"\x01" * width)],
    )
    assert node._fold(block, inside) == bytes(width * (leaves - 1)) + b"\x01" * width


def test_the_fused_node_is_fed():
    """Every replica's feeder holds the fused node's ack for its shard, and
    keeps that checkpoint out of GC; no MAC on the way failed."""
    sharded, tier = _cluster_with_tier()
    _write_past_checkpoints(sharded)
    assert dict(sorted(tier.node.applied.items())) == {0: 32, 1: 32, 2: 32, 3: 32}
    for shard in range(NUM_SHARDS):
        for rid in REPLICAS:
            feeder = sharded.shard(shard).hosts[rid].replica.fusion_feeder
            assert feeder.acked == 32
            assert feeder.gc_floor(48) == 32
            assert feeder.gc_floor(16) == 16
    totals = sharded.total_counters()
    assert totals.get("fusion_acks") > 0
    assert totals.get("fusion_acks_ignored") == 0
    assert totals.get("fusion_auth_failed") == 0
    assert totals.get("auth_failed") == 0


def test_incremental_parity_equals_a_fresh_encode():
    """After bootstrap plus two rounds of cell deltas, the parity is the XOR
    of the shards' packed states at the checkpoints it stands at."""
    sharded, tier = _cluster_with_tier()
    _write_past_checkpoints(sharded)
    assert tier.total_counters().get("fusion_updates_applied") >= 2 * NUM_SHARDS
    blocks = [
        _block_at(
            sharded.shard(shard),
            tier.node.applied[shard],
            tier.slot_width,
            tier.num_leaves,
        )
        for shard in range(NUM_SHARDS)
    ]
    assert tier.node.parity == xor_blocks(blocks, NUM_SHARDS)
