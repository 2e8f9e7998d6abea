"""E15 (ablation) — the read-only optimization.

PBFT answers read-only operations without ordering (one round trip, 2f+1
matching replies).  We run a read-heavy workload through the replicated file
service with the optimization on and off and compare latency and ordering
traffic — the justification for keeping reads out of the agreement pipeline.
"""

from repro.bench.metrics import ExperimentTable, ratio
from repro.nfs.client import NFSClient

from benchmarks.conftest import hetero_deployment, show

READS = 80


def _read_heavy(read_only_optimization: bool):
    dep = hetero_deployment()
    fs = NFSClient(dep.relay("C0", read_only_optimization=read_only_optimization))
    fs.mkdir("/rh")
    for i in range(4):
        fs.write_file(f"/rh/f{i}", bytes([i]) * 1024)
    executed_before = sum(r.last_executed for r in dep.cluster.replicas)
    started = dep.sim.now()
    for i in range(READS):
        fs.read_file(f"/rh/f{i % 4}")
    elapsed = dep.sim.now() - started
    dep.sim.run_for(1.0)
    ordered = max(r.last_executed for r in dep.cluster.replicas)
    read_only_execs = sum(
        r.counters.get("read_only_executed") for r in dep.cluster.replicas
    )
    return {
        "optimization": read_only_optimization,
        "virtual_seconds": elapsed,
        "ordered_batches": ordered,
        "read_only_executions": read_only_execs,
    }


def test_read_only_optimization_ablation():
    with_opt, without_opt = _read_heavy(True), _read_heavy(False)

    table = ExperimentTable("E15: read-only optimization ablation")
    for row in (with_opt, without_opt):
        table.add_row(
            read_only_optimization="on" if row["optimization"] else "off",
            virtual_seconds=round(row["virtual_seconds"], 3),
            ordered_batches=row["ordered_batches"],
            read_only_executions=row["read_only_executions"],
        )
    speedup = ratio(without_opt["virtual_seconds"], with_opt["virtual_seconds"])
    table.add_row(
        read_only_optimization="speedup",
        virtual_seconds=f"{speedup:.2f}x",
        ordered_batches="",
        read_only_executions="",
    )
    show(table)

    # Reads bypass ordering entirely with the optimization on...
    assert with_opt["read_only_executions"] >= READS * 3
    # ...and the ordered-sequence length stays at the setup writes.
    assert with_opt["ordered_batches"] < without_opt["ordered_batches"]
    # Latency benefit is real (one round trip vs three phases).
    assert speedup > 1.2
