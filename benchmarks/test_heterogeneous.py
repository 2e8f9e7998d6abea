"""E6 — opportunistic N-version programming: heterogeneous replicas.

The paper's deployment runs a different operating system / file system at
each replica.  We compare homogeneous deployments (each vendor × 4) against
the heterogeneous one on the same workload: abstract states must be
identical, and the heterogeneous deployment must not cost materially more
than the slowest homogeneous one.
"""

from repro.bench.andrew import AndrewBenchmark
from repro.bench.metrics import ExperimentTable
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import BtrFS, Ext2FS, FFS, LogFS, MemFS

from benchmarks.conftest import hetero_deployment, homo_deployment, show


def _run(dep):
    fs = NFSClient(dep.relay("C0"))
    result = AndrewBenchmark(fs, dep.sim, scale=1).run()
    dep.sim.run_for(2.0)
    roots = {
        rid: dep.cluster.service(rid).current_node(0, 0)[1] for rid in dep.cluster.hosts
    }
    return result, roots


def test_homogeneous_vs_heterogeneous():
    rows = []
    reference_root = None
    for label, dep in [
        ("memfs x4", homo_deployment(MemFS)),
        ("ext2 x4", homo_deployment(Ext2FS)),
        ("ffs x4", homo_deployment(FFS)),
        ("logfs x4", homo_deployment(LogFS)),
        ("btrfs x4", homo_deployment(BtrFS)),
        ("heterogeneous", hetero_deployment()),
    ]:
        result, roots = _run(dep)
        assert len(set(roots.values())) == 1, f"{label} replicas diverged"
        root = next(iter(roots.values()))
        if reference_root is None:
            reference_root = root
        rows.append(
            {
                "deployment": label,
                "virtual_seconds": result.total_seconds,
                "abstract_root": root.hex()[:12],
                "matches_reference": root == reference_root,
            }
        )

    table = ExperimentTable("E6: homogeneous vs heterogeneous deployments")
    for row in rows:
        table.add_row(
            deployment=row["deployment"],
            virtual_seconds=round(row["virtual_seconds"], 3),
            abstract_root=row["abstract_root"],
            matches_reference=row["matches_reference"],
        )
    show(table)

    # Every deployment — whatever the vendors — lands on the same abstract
    # state (timestamps are agreed, so even the roots match across runs).
    assert all(row["matches_reference"] for row in rows)

    times = {row["deployment"]: row["virtual_seconds"] for row in rows}
    hetero = times["heterogeneous"]
    slowest_homo = max(v for k, v in times.items() if k != "heterogeneous")
    assert hetero <= slowest_homo * 1.25
