"""ReplicaHost mechanics: watchdog staggering, skip conditions, accounting."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.testing import encode_set, kv_cluster


def warmed_cluster(**config_overrides):
    defaults = dict(checkpoint_interval=8, log_window=16)
    defaults.update(config_overrides)
    cluster = kv_cluster(config=BFTConfig(**defaults))
    client = cluster.client("C0")
    for i in range(12):
        client.invoke(encode_set(i % 4, bytes([i])), timeout=60)
    cluster.settle(1.0)
    return cluster


def test_recovery_skipped_while_recovering():
    cluster = warmed_cluster()
    host = cluster.hosts["R1"]
    assert cluster.recover("R1")
    # Second call while the first is mid-flight must refuse.
    assert not cluster.recover("R1")
    cluster.settle(3.0)
    assert host.replica.counters.get("recoveries_started") == 1


def test_staggered_offsets_cover_the_period():
    cluster = warmed_cluster(recovery_period=4.0)
    cluster.start_proactive_recovery()
    cluster.sim.run_for(4.5)
    starts = {
        rid: host.recovery_log[0][0]
        for rid, host in cluster.hosts.items()
        if host.recovery_log
    }
    assert len(starts) == 4
    # First firings land at period * (i+1)/n: 1, 2, 3, 4 seconds (plus the
    # warmup offset), pairwise ~1 s apart.
    ordered = sorted(starts.values())
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    assert all(0.5 < gap < 1.5 for gap in gaps), gaps


def test_recovery_log_and_durations_align():
    cluster = warmed_cluster()
    host = cluster.hosts["R2"]
    cluster.recover("R2")
    cluster.settle(3.0)
    assert len(host.recovery_log) == 1
    (start, end), = host.recovery_log
    assert end > start
    assert host.recovery_durations() == [end - start]


def test_counters_survive_reboot():
    cluster = warmed_cluster()
    host = cluster.hosts["R3"]
    executed_before = host.replica.counters.get("requests_executed")
    assert executed_before > 0
    cluster.recover("R3")
    cluster.settle(3.0)
    # Counter totals were merged into the new replica instance.
    assert host.replica.counters.get("requests_executed") >= executed_before


def test_service_factory_called_per_reboot():
    calls = []

    from repro.bft.cluster import Cluster
    from repro.bft.testing import KVStateMachine

    def factory_for(replica_id):
        def make(disk):
            calls.append(replica_id)
            return KVStateMachine(num_slots=16, disk=disk)

        return make

    cluster = Cluster(factory_for, config=BFTConfig(checkpoint_interval=8, log_window=16))
    client = cluster.client("C0")
    for i in range(10):
        client.invoke(encode_set(i % 4, bytes([i])), timeout=60)
    assert calls.count("R0") == 1
    cluster.recover("R0")
    cluster.settle(3.0)
    assert calls.count("R0") == 2
