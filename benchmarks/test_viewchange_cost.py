"""E13 — view-change cost: fail-over latency and message overhead."""

from repro.bench.metrics import ExperimentTable
from repro.bft.config import BFTConfig
from repro.bft.testing import encode_set, kv_cluster

from benchmarks.conftest import show


def _measure_failover(view_change_timeout: float):
    config = BFTConfig(
        checkpoint_interval=16, log_window=64, view_change_timeout=view_change_timeout
    )
    cluster = kv_cluster(config=config)
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"warm"))
    messages_before = cluster.network.counters.get("messages_sent")
    cluster.crash("R0")
    started = cluster.sim.now()
    client.invoke(encode_set(1, b"failover"), timeout=60)
    failover_latency = cluster.sim.now() - started
    messages = cluster.network.counters.get("messages_sent") - messages_before
    views = {r.view for r in cluster.replicas if r.node_id != "R0"}
    return {
        "timeout": view_change_timeout,
        "failover_latency": failover_latency,
        "messages": messages,
        "final_view": max(views),
    }


def test_failover_latency_tracks_timeout():
    rows = [_measure_failover(t) for t in (0.1, 0.25, 0.5)]

    table = ExperimentTable("E13: view-change fail-over cost")
    for row in rows:
        table.add_row(
            request_timeout=row["timeout"],
            failover_latency=round(row["failover_latency"], 4),
            messages=row["messages"],
            final_view=row["final_view"],
        )
    show(table)

    # Fail-over latency is dominated by the request timer, as in PBFT.
    for row in rows:
        assert row["timeout"] <= row["failover_latency"] <= row["timeout"] * 3 + 0.1
        assert row["final_view"] == 1  # exactly one view change
    latencies = [row["failover_latency"] for row in rows]
    assert latencies == sorted(latencies)


def test_steady_state_has_no_view_changes():
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=16, log_window=64))
    client = cluster.client("C0")
    for i in range(60):
        client.invoke(encode_set(i % 8, bytes([i % 251])), timeout=60)
    cluster.settle(2.0)
    assert sum(r.counters.get("view_changes_started") for r in cluster.replicas) == 0
