"""E19 (ablation) — cost of the replication degree.

n = 3f+1 replicas tolerate f faults; messages per ordered operation grow
quadratically with n (all-to-all prepare/commit).  We measure n=4 vs n=7 —
the trade the paper's deployment makes by picking f=1.
"""

from repro.bench.metrics import ExperimentTable
from repro.bft.config import BFTConfig
from repro.bft.testing import encode_set, kv_cluster

from benchmarks.conftest import show

OPS = 40


def _run_with_degree(f: int):
    n = 3 * f + 1
    config = BFTConfig(
        replica_ids=[f"R{i}" for i in range(n)],
        f=f,
        checkpoint_interval=8,
        log_window=16,
    )
    cluster = kv_cluster(config=config)
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"warm"), timeout=60)
    before = cluster.network.counters.snapshot()
    started = cluster.sim.now()
    for i in range(OPS):
        client.invoke(encode_set(i % 8, bytes([i % 251])), timeout=60)
    elapsed = cluster.sim.now() - started
    diff = cluster.network.counters.diff(before)
    return {
        "f": f,
        "n": n,
        "latency_per_op": elapsed / OPS,
        "messages_per_op": diff.get("messages_sent", 0) / OPS,
        "bytes_per_op": diff.get("bytes_sent", 0) / OPS,
    }


def test_replication_degree_costs():
    rows = [_run_with_degree(1), _run_with_degree(2)]

    table = ExperimentTable("E19: cost of the replication degree")
    for row in rows:
        table.add_row(
            f=row["f"],
            n=row["n"],
            latency_per_op_ms=round(row["latency_per_op"] * 1000, 3),
            messages_per_op=round(row["messages_per_op"], 1),
            bytes_per_op=int(row["bytes_per_op"]),
        )
    show(table)

    four, seven = rows
    # Message cost grows superlinearly (quadratic all-to-all phases)...
    assert seven["messages_per_op"] > four["messages_per_op"] * 1.8
    # ...while latency stays roughly flat (same number of rounds).
    assert seven["latency_per_op"] < four["latency_per_op"] * 1.5
