"""E14 (ablation) — checkpoint interval k and copy-on-write cost.

The paper uses k = 128: checkpoints every k requests hold only the objects
whose value changed (copy-on-write).  We sweep k and measure COW copies,
checkpoint digest work, and bytes held, plus the batching ablation.
"""

from repro.bench.metrics import ExperimentTable
from repro.bench.suites import checkpoint_run, closed_loop
from repro.bft.config import VARIANTS, BFTConfig
from repro.bft.testing import encode_set, kv_cluster

from benchmarks.conftest import show

OPS = 96
WIDTH = 8


def _run_with_k(k: int):
    config = BFTConfig(checkpoint_interval=k, log_window=4 * k)
    cluster = kv_cluster(config=config, num_slots=64)
    client = cluster.client("C0")
    for i in range(OPS):
        client.invoke(encode_set(i % WIDTH, bytes([i % 251]) * 64), timeout=60)
    cluster.settle(1.0)
    service = cluster.service("R0")
    manager = service.manager
    return {
        "k": k,
        "checkpoints": manager.counters.get("checkpoints_taken"),
        "cow_copies": manager.counters.get("cow_copies"),
        "cow_bytes": manager.counters.get("cow_bytes"),
        "digest_updates": manager.counters.get("checkpoint_digests"),
    }


def test_checkpoint_interval_sweep():
    rows = [_run_with_k(k) for k in (4, 8, 16, 32)]

    table = ExperimentTable("E14: checkpoint interval k — COW cost")
    for row in rows:
        table.add_row(**row)
    show(table)

    # More frequent checkpoints => more checkpoints and more COW copies
    # (each interval re-copies the hot objects).
    checkpoints = [row["checkpoints"] for row in rows]
    assert checkpoints == sorted(checkpoints, reverse=True)
    cow = [row["cow_copies"] for row in rows]
    assert cow[0] >= cow[-1]
    # COW copies stay bounded by hot-set size per interval, far below the
    # full-copy alternative (64 objects per checkpoint).
    for row in rows:
        full_copy_cost = row["checkpoints"] * 64
        assert row["cow_copies"] < full_copy_cost


def test_checkpoint_cost_independent_of_state_size():
    """Checkpoint cost tracks the modified set, not the total object count.

    With structure-sharing snapshots, ``take_checkpoint`` path-copies only
    O(modified * log n) tree nodes.  Growing the tree 8x (64 -> 512 objects)
    with an identical hot set must leave digest work unchanged and grow tree
    copying by at most the extra tree depth — nowhere near 8x.  The workload
    is the ``checkpoint_cow`` scenario's :func:`checkpoint_run`.
    """
    small, large = checkpoint_run(64), checkpoint_run(512)

    table = ExperimentTable("E14c: checkpoint cost vs total state size")
    for num_slots, row in ((64, small), (512, large)):
        table.add_row(
            num_slots=num_slots,
            checkpoints=row["checkpoints_taken"],
            digest_updates=row["checkpoint_digests"],
            nodes_per_checkpoint=round(row["tree_nodes_copied_per_checkpoint"], 1),
        )
    show(table)

    assert small["checkpoints_taken"] == large["checkpoints_taken"] > 0
    # Digest work depends only on what changed, never on tree size.
    assert small["checkpoint_digests"] == large["checkpoint_digests"]
    # Tree copying grows with depth (log n), not with n: the 8x larger tree
    # must cost well under 2x per checkpoint (a full-copy snapshot costs 8x).
    ratio = large["tree_nodes_copied_per_checkpoint"] / max(
        small["tree_nodes_copied_per_checkpoint"], 1
    )
    assert ratio < 2.0, f"tree copy cost scaled with state size (ratio {ratio:.2f})"


def test_batching_ablation():
    """Request batching amortizes protocol cost across concurrent clients."""
    results = {}
    for batch_max in (1, 8):
        config = BFTConfig(checkpoint_interval=16, log_window=64, batch_max=batch_max)
        cluster = kv_cluster(config=config)
        clients = [cluster.client(f"C{i}") for i in range(6)]
        done = []
        for round_number in range(5):
            for client in clients:
                client.invoke_async(
                    encode_set(round_number % 8, client.node_id.encode()),
                    done.append,
                )
            cluster.sim.run_until_condition(
                lambda: len(done) >= (round_number + 1) * 6, timeout=60
            )
        primary = cluster.replica("R0")
        results[batch_max] = {
            "pre_prepares": primary.counters.get("pre_prepares_sent"),
            "requests": primary.counters.get("batched_requests"),
        }

    table = ExperimentTable("E14b: batching ablation")
    for batch_max, row in results.items():
        table.add_row(
            batch_max=batch_max,
            pre_prepares=row["pre_prepares"],
            requests_ordered=row["requests"],
            requests_per_batch=round(row["requests"] / max(row["pre_prepares"], 1), 2),
        )
    show(table)

    assert results[8]["pre_prepares"] < results[1]["pre_prepares"]


def test_batching_under_pipelining():
    """On the fast path the pipeline's eight slots are never full with 16
    closed-loop writers, so the batch comes from the bound on instances still
    *forming* (short of their prepared certificate): ``max_outstanding``.
    Set to ``pipeline_depth`` the bound is vacuous — the fast path as it was
    before the primary batched under pipelining."""
    rows = []
    for forming_bound in (2, 8):
        config = BFTConfig(
            checkpoint_interval=16,
            log_window=64,
            batch_max=16,
            max_outstanding=forming_bound,
            **VARIANTS["speculation"].overrides,
        )
        cluster = kv_cluster(config=config)
        clients = [cluster.client(f"C{i}") for i in range(16)]
        closed_loop(cluster, clients, 25, 16)
        cluster.settle(1.0)
        counters = cluster.total_counters()
        rows.append(
            {
                "forming_bound": forming_bound,
                "pre_prepares": counters.get("pre_prepares_sent"),
                "requests_ordered": counters.get("batched_requests"),
                "requests_per_batch": round(
                    counters.get("batched_requests") / counters.get("pre_prepares_sent"), 2
                ),
                "messages": counters.get("messages_sent"),
            }
        )

    table = ExperimentTable("E14b: batching under pipelining (fast path)")
    for row in rows:
        table.add_row(**row)
    show(table)

    bounded, unbounded = rows
    assert bounded["requests_ordered"] == unbounded["requests_ordered"] == 400
    assert bounded["requests_per_batch"] >= 3 > unbounded["requests_per_batch"]
    assert bounded["messages"] < unbounded["messages"]
