"""E17 (ablation) — throughput scaling with concurrent clients.

PBFT's batching amortizes agreement cost across concurrent requests: with
closed-loop clients (each issues its next request when the previous reply
arrives), throughput grows well past a single client's reciprocal latency.
"""

from repro.bench.metrics import ExperimentTable
from repro.bench.suites import closed_loop, global_stats
from repro.bft.config import BFTConfig
from repro.bft.testing import encode_set, kv_cluster

from benchmarks.conftest import show

OPS_PER_CLIENT = 30


def _scaling_run(num_clients: int):
    cluster = kv_cluster(
        config=BFTConfig(checkpoint_interval=16, log_window=64, batch_max=16)
    )
    clients = [cluster.client(f"C{i}") for i in range(num_clients)]
    started = cluster.sim.now()
    closed_loop(cluster, clients, OPS_PER_CLIENT, width=16)
    elapsed = cluster.sim.now() - started
    total_ops = num_clients * OPS_PER_CLIENT
    primary = cluster.replica("R0")
    batches = primary.counters.get("pre_prepares_sent")
    return {
        "clients": num_clients,
        "throughput": total_ops / elapsed,
        "requests_per_batch": primary.counters.get("batched_requests") / max(batches, 1),
    }


def test_throughput_scales_with_clients():
    rows = [_scaling_run(n) for n in (1, 2, 4, 8, 12)]

    table = ExperimentTable("E17: closed-loop throughput scaling")
    for row in rows:
        table.add_row(
            clients=row["clients"],
            ops_per_virtual_second=round(row["throughput"], 0),
            requests_per_batch=round(row["requests_per_batch"], 2),
        )
    show(table)

    throughputs = [row["throughput"] for row in rows]
    # Monotone-ish growth, and real amortization: 12 clients beat 1 client
    # by far more than 1x, thanks to batching.
    assert throughputs[-1] > throughputs[0] * 3
    assert rows[-1]["requests_per_batch"] > rows[0]["requests_per_batch"]


def test_broadcast_serializes_once():
    """Each broadcast message serializes exactly once, not once per recipient.

    ``auth_multicast`` computes the signable bytes a single time and reuses
    them for every recipient's MAC and send, so across a run the number of
    encodings is bounded by *distinct messages* (one per broadcast plus the
    point-to-point traffic), far below the per-recipient send count.
    """

    with global_stats() as stats:
        cluster = kv_cluster(
            config=BFTConfig(checkpoint_interval=16, log_window=64, batch_max=16)
        )
        client = cluster.client("C0")
        for i in range(30):
            client.invoke(encode_set(i % 16, bytes([i % 251]) * 8), timeout=60)
        cluster.settle(1.0)
    totals = cluster.total_counters()
    row = {
        "message_encodes": stats.get("message_encodes", 0),
        "messages_sent": totals.get("messages_sent"),
        "auth_broadcasts": totals.get("auth_broadcasts"),
    }

    table = ExperimentTable("E17b: one serialization per broadcast")
    table.add_row(
        messages_sent=row["messages_sent"],
        auth_broadcasts=row["auth_broadcasts"],
        message_encodes=row["message_encodes"],
        encodes_per_send=round(row["message_encodes"] / row["messages_sent"], 3),
    )
    show(table)

    assert row["auth_broadcasts"] > 0
    # A replica group of 4 fans each broadcast out to 3 recipients.  One
    # serialization per broadcast means total encodings stay at most
    # (sends - 2*broadcasts): every broadcast contributes 3 sends but only 1
    # encode.  The small slack covers messages built but never sent.
    assert (
        row["message_encodes"]
        <= row["messages_sent"] - 2 * row["auth_broadcasts"] + 16
    )
    # And the aggregate ratio sits well below one encode per send (it exceeded
    # one when wire_size()/auth paths re-encoded).
    assert row["message_encodes"] / row["messages_sent"] < 0.6
