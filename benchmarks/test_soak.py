"""E18 — soak: sustained mixed workload with everything enabled.

Heterogeneous vendors, packet loss, a proactive-recovery rotation, two
concurrent clients, mixed reads/writes/metadata churn — run long enough for
multiple full recovery rotations and report sustained throughput,
availability, recoveries, transfers, and final convergence.  This is the
"leave it running overnight" credibility check, scaled to seconds.
"""

from repro.bench.metrics import ExperimentTable
from repro.bft.config import BFTConfig
from repro.net.network import NetworkConfig
from repro.nfs.audit import diff_wrappers
from repro.nfs.client import NFSClient, NFSError
from repro.nfs.fileserver import HETEROGENEOUS
from repro.nfs.relay import NFSDeployment

from benchmarks.conftest import show

ROUNDS = 30


def _soak():
    dep = NFSDeployment(
        HETEROGENEOUS,
        num_objects=192,
        config=BFTConfig(
            checkpoint_interval=16, log_window=64, recovery_period=3.0
        ),
        net_config=NetworkConfig(delay=0.0005, jitter=0.0005, drop_rate=0.02),
        seed=13,
    )
    dep.cluster.start_proactive_recovery()
    writer = NFSClient(dep.relay("writer"), cache_handles=True)
    reader = NFSClient(dep.relay("reader"), cache_handles=True)

    writer.mkdir("/soak")
    operations = 0
    failures = 0
    started = dep.sim.now()
    for round_number in range(ROUNDS):
        try:
            writer.write_file(
                f"/soak/f{round_number % 12}", bytes([round_number % 251]) * 300
            )
            operations += 1
            if round_number % 3 == 0:
                writer.rename(
                    f"/soak/f{round_number % 12}", f"/soak/g{round_number % 12}"
                )
                writer.rename(
                    f"/soak/g{round_number % 12}", f"/soak/f{round_number % 12}"
                )
                operations += 2
            reader.listdir("/soak")
            reader.read_file(f"/soak/f{round_number % 12}")
            operations += 2
        except NFSError:
            failures += 1
        dep.sim.run_for(0.4)  # let recoveries interleave
    elapsed = dep.sim.now() - started

    dep.sim.run_for(8.0)
    recoveries = sum(
        host.replica.counters.get("recoveries_completed")
        for host in dep.cluster.hosts.values()
    )
    transfers = sum(
        host.replica.counters.get("state_transfers_completed")
        for host in dep.cluster.hosts.values()
    )
    settled = [
        rid for rid, host in dep.cluster.hosts.items() if not host.replica.recovering
    ]
    first, *rest = settled
    diffs = sum(
        len(diff_wrappers(dep.wrapper(first), dep.wrapper(other))) for other in rest
    )
    return {
        "virtual_seconds": elapsed,
        "operations": operations,
        "failures": failures,
        "recoveries": recoveries,
        "transfers": transfers,
        "settled_replicas": len(settled),
        "abstract_diffs": diffs,
        "final_read": reader.read_file("/soak/f5"),
    }


def test_soak_run():
    row = _soak()

    table = ExperimentTable("E18: soak — everything enabled")
    table.add_row(
        virtual_seconds=round(row["virtual_seconds"], 1),
        operations=row["operations"],
        failures=row["failures"],
        recoveries=row["recoveries"],
        transfers=row["transfers"],
        abstract_diffs=row["abstract_diffs"],
    )
    show(table)

    assert row["failures"] == 0
    assert row["recoveries"] >= 8  # several full rotations
    assert row["abstract_diffs"] == 0
    last_writer_round = max(r for r in range(ROUNDS) if r % 12 == 5)
    assert row["final_read"] == bytes([last_writer_round % 251]) * 300
