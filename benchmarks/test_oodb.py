"""E12 — the object-oriented database (paper abstract's second example):
same nondeterministic implementation at every replica.

Workload: build and mutate a linked object graph on the replicated database
and verify abstract-state convergence despite wildly different concrete heaps.
"""

from repro.bench.metrics import ExperimentTable
from repro.bft.config import BFTConfig
from repro.oodb import OODBDeployment

from benchmarks.conftest import show

GRAPH_NODES = 20
UPDATES = 60


def _replicated_workload():
    dep = OODBDeployment(
        config=BFTConfig(checkpoint_interval=16, log_window=64), num_objects=128
    )
    db = dep.client("C0")
    started = dep.sim.now()
    nodes = [db.new("Node") for _ in range(GRAPH_NODES)]
    for i, node in enumerate(nodes):
        db.set(node, "value", i)
        if i:
            db.set(nodes[i - 1], "next", node)
    db.set(db.root, "head", nodes[0])
    for i in range(UPDATES):
        db.set(nodes[i % GRAPH_NODES], "value", i * 31)
    elapsed = dep.sim.now() - started
    dep.sim.run_for(1.0)
    roots = {
        rid: dep.cluster.service(rid).current_node(0, 0)[1] for rid in dep.cluster.hosts
    }
    heaps = {rid: dep.wrapper(rid).handles[1] for rid in dep.cluster.hosts}
    return {
        "elapsed": elapsed,
        "converged": len(set(roots.values())) == 1,
        "distinct_concrete_handles": len(set(heaps.values())),
        "ops": GRAPH_NODES * 3 + UPDATES,
    }


def test_replicated_oodb_workload():
    row = _replicated_workload()

    table = ExperimentTable("E12: replicated OODB (same nondeterministic impl x4)")
    table.add_row(
        operations=row["ops"],
        virtual_seconds=round(row["elapsed"], 3),
        abstract_converged=row["converged"],
        distinct_concrete_handles=row["distinct_concrete_handles"],
    )
    show(table)

    assert row["converged"]
    # Every replica chose different memory-address handles for object 1 —
    # that is the nondeterminism BASE hides.
    assert row["distinct_concrete_handles"] == 4


def test_oodb_recovery_during_updates():
    dep = OODBDeployment(
        config=BFTConfig(checkpoint_interval=8, log_window=16), num_objects=64
    )
    db = dep.client("C0")
    node = db.new("Counter")
    for i in range(20):
        db.set(node, "n", i)
    dep.sim.run_for(1.0)
    host = dep.cluster.hosts["R2"]
    assert dep.cluster.recover("R2")
    for i in range(20, 30):
        db.set(node, "n", i)
    dep.sim.run_for(5.0)
    roots = {
        rid: dep.cluster.service(rid).current_node(0, 0)[1] for rid in dep.cluster.hosts
    }
    assert host.replica.counters.get("recoveries_completed") >= 1
    assert len(set(roots.values())) == 1
    assert db.get(node)["n"] == 29
