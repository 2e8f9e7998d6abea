"""Safety oracle: correct replicas execute the *same sequence* of requests.

The recording harness lives in ``repro.bft.testing`` (shared with
``repro.explore``): ``RecordingKV`` logs every mutation, ``recording_cluster``
wires a full cluster of them, and the prefix / order-consistency helpers in
``tests.bft.history`` state the state-machine-replication safety invariant
directly.  These tests drive that harness under clean runs, view changes,
packet loss, random crash/recovery schedules, and proactive-recovery
reboots."""

import random
from typing import List

import pytest

from repro.bft.config import BFTConfig
from repro.bft.testing import (
    HistoryRecorder,
    RecordingKV,
    encode_set,
    order_divergence,
    recording_cluster,
)
from repro.net.network import NetworkConfig

from tests.bft.history import (
    assert_order_consistent,
    assert_prefix_consistent,
    cumulative_histories,
    is_subsequence,
    prefix_divergence,
)


def _cluster(seed=0, drop_rate=0.0, recovery_period=0.0):
    return recording_cluster(
        config=BFTConfig(
            checkpoint_interval=8, log_window=16, recovery_period=recovery_period
        ),
        net_config=NetworkConfig(delay=0.0005, jitter=0.0005, drop_rate=drop_rate),
        seed=seed,
    )


def test_clean_run_histories_identical():
    cluster, recorder = _cluster()
    client = cluster.client("C0")
    for i in range(25):
        client.invoke(encode_set(i % 8, bytes([i])), timeout=60)
    cluster.settle(1.0)
    histories = cumulative_histories(recorder)
    assert_prefix_consistent(histories)
    assert len({tuple(h) for h in histories.values()}) == 1


def test_histories_prefix_consistent_across_view_changes():
    cluster, recorder = _cluster()
    client = cluster.client("C0")
    for i in range(10):
        client.invoke(encode_set(i % 8, bytes([i])), timeout=60)
    cluster.crash("R0")
    for i in range(10, 20):
        client.invoke(encode_set(i % 8, bytes([i])), timeout=60)
    cluster.restart("R0")
    cluster.settle(3.0)
    # crash/restart only gates the network -- the service instances survive,
    # so each replica still has a single incarnation segment.
    assert all(len(segs) == 1 for segs in recorder.history_segments.values())
    assert_prefix_consistent(cumulative_histories(recorder))


def test_histories_under_packet_loss():
    cluster, recorder = _cluster(seed=3, drop_rate=0.05)
    client = cluster.client("C0")
    for i in range(30):
        client.invoke(encode_set(i % 8, bytes([i])), timeout=120)
    cluster.settle(3.0)
    assert_prefix_consistent(cumulative_histories(recorder))


@pytest.mark.parametrize("seed", [11, 22])
def test_histories_under_random_crash_schedule(seed):
    """Random ≤ f crash/restart schedule interleaved with traffic: no two
    correct replicas ever execute conflicting orders."""
    cluster, recorder = _cluster(seed=seed)
    client = cluster.client("C0")
    rng = random.Random(seed)
    crashed: List[str] = []
    for i in range(40):
        roll = rng.random()
        if roll < 0.1 and not crashed:
            victim = rng.choice(cluster.config.replica_ids)
            cluster.crash(victim)
            crashed.append(victim)
        elif roll < 0.2 and crashed:
            cluster.restart(crashed.pop())
        client.invoke(encode_set(i % 8, bytes([seed, i])), timeout=120)
    for victim in crashed:
        cluster.restart(victim)
    cluster.settle(5.0)
    assert_prefix_consistent(cumulative_histories(recorder))
    assert_order_consistent(recorder)


def test_histories_across_proactive_recovery_reboots():
    """A rebooted replica rolls back to its stable checkpoint and re-executes
    the suffix: its cumulative history is NOT a subsequence any more, but
    every incarnation segment still orders common operations consistently."""
    cluster, recorder = _cluster()
    client = cluster.client("C0")
    for i in range(12):
        client.invoke(encode_set(i % 8, bytes([i])), timeout=60)
    assert cluster.recover("R2")
    cluster.settle(2.0)
    for i in range(12, 24):
        client.invoke(encode_set(i % 8, bytes([i])), timeout=60)
    cluster.settle(2.0)
    assert len(recorder.history_segments["R2"]) == 2
    assert_order_consistent(recorder)


def test_prefix_divergence_reports_reordering():
    histories = {
        "R0": [("C0", b"a"), ("C0", b"b"), ("C0", b"c")],
        "R1": [("C0", b"b"), ("C0", b"a")],
    }
    problem = prefix_divergence(histories)
    assert problem is not None and "R1" in problem


def test_order_divergence_tolerates_rollback_but_catches_conflicts():
    a, b, c = ("C0", b"a"), ("C0", b"b"), ("C0", b"c")
    # Reboot re-execution: [a, b] then a fresh segment [b, c] is consistent.
    assert order_divergence({"R0": [[a, b], [b, c]], "R1": [[a, b, c]]}) is None
    # Genuine reorder across replicas is not.
    assert order_divergence({"R0": [[a, b]], "R1": [[b, a]]}) is not None
    # Excluded (Byzantine) replicas do not count.
    assert order_divergence({"R0": [[a, b]], "R1": [[b, a]]}, exclude=("R1",)) is None


def test_reboot_inside_a_speculation_frame_seals_the_segment_at_its_watermark():
    """Tentative executions of an incarnation that died mid-speculation must
    never become committed evidence (they were never committed, and a view
    change may legitimately order that batch differently)."""
    recorder = HistoryRecorder()
    service = RecordingKV(recorder, "R0", num_slots=8)
    service.execute(encode_set(0, b"committed"), "C0", b"")
    service.record_reply("C0", 1, b"OK")
    service.begin_speculation()
    service.execute(encode_set(1, b"tentative"), "C0", b"")
    service.record_reply("C0", 2, b"OK")
    assert [len(s) for s in recorder.committed_history_segments()["R0"]] == [1]
    assert recorder.committed_lengths("R0") == (1, 1)

    RecordingKV(recorder, "R0", num_slots=8)  # the reboot
    assert [len(s) for s in recorder.committed_history_segments()["R0"]] == [1, 0]
    assert [len(s) for s in recorder.committed_reply_logs()["R0"]] == [1, 0]
    assert recorder.history_segments["R0"][0] == [("C0", encode_set(0, b"committed"))]
    assert recorder.committed_lengths("R0") == (0, 0)


def test_is_subsequence():
    assert is_subsequence([1, 3], [1, 2, 3])
    assert not is_subsequence([3, 1], [1, 2, 3])
