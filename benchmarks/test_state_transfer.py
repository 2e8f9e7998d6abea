"""E9 — hierarchical state transfer efficiency (OSDI'00 machinery the paper
relies on).

A replica that missed updates fetches only the abstract objects that
actually changed: we sweep the fraction of the object array dirtied while a
replica is away and compare objects/bytes fetched against a full-state copy.
"""

from repro.bench.metrics import ExperimentTable
from repro.bft.config import BFTConfig
from repro.bft.testing import encode_set, kv_cluster

from benchmarks.conftest import show

NUM_SLOTS = 64
PAYLOAD = 128


def _transfer_with_dirty_fraction(fraction: float):
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config, num_slots=NUM_SLOTS)
    client = cluster.client("C0")
    # Populate everything first so a full copy would be NUM_SLOTS objects.
    for index in range(NUM_SLOTS):
        client.invoke(encode_set(index, bytes([index]) * PAYLOAD), timeout=60)
    cluster.settle(1.0)
    cluster.crash("R3")
    dirty = max(1, int(NUM_SLOTS * fraction))
    for round_number in range(3):  # enough rounds to outrun R3's log window
        for index in range(dirty):
            client.invoke(
                encode_set(index, bytes([round_number + 1, index]) * (PAYLOAD // 2)),
                timeout=60,
            )
    cluster.restart("R3")
    cluster.settle(5.0)
    replica = cluster.replica("R3")
    assert replica.counters.get("state_transfers_completed") >= 1
    return {
        "dirty_fraction": fraction,
        "dirty_objects": dirty,
        "objects_fetched": replica.counters.get("objects_fetched"),
        "bytes_fetched": replica.counters.get("object_bytes_fetched"),
        "meta_queries": replica.counters.get("fetch_meta_sent"),
    }


def test_dirty_fraction_sweep():
    rows = [
        _transfer_with_dirty_fraction(fraction) for fraction in (0.05, 0.25, 0.5, 1.0)
    ]

    full_copy_bytes = NUM_SLOTS * (PAYLOAD // 2) * 2
    table = ExperimentTable("E9: state-transfer cost vs dirty fraction")
    for row in rows:
        table.add_row(
            dirty_fraction=row["dirty_fraction"],
            dirty_objects=row["dirty_objects"],
            objects_fetched=row["objects_fetched"],
            bytes_fetched=row["bytes_fetched"],
            meta_queries=row["meta_queries"],
            vs_full_copy=round(row["objects_fetched"] / NUM_SLOTS, 3),
        )
    show(table)

    # Fetched objects track the dirty set, not the state size.
    assert rows[0]["objects_fetched"] <= rows[0]["dirty_objects"] + 2
    fetched = [row["objects_fetched"] for row in rows]
    assert fetched == sorted(fetched)
    assert rows[-1]["objects_fetched"] <= NUM_SLOTS


def test_up_to_date_replica_transfers_nothing():
    """Root digests match => zero meta/object traffic beyond the anchor."""
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config, num_slots=NUM_SLOTS)
    client = cluster.client("C0")
    for i in range(20):
        client.invoke(encode_set(i % 8, bytes([i])), timeout=60)
    cluster.settle(1.0)
    replica = cluster.replica("R3")
    before = replica.counters.snapshot()
    replica.transfer.begin_from_root(min_seqno=1)
    cluster.settle(1.0)
    diff = replica.counters.diff(before)
    assert diff.get("objects_fetched", 0) == 0
    assert diff.get("fetch_meta_sent", 0) <= 1
