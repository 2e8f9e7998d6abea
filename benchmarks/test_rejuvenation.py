"""E10 — software rejuvenation: proactive recovery vs aging.

Paper section 2.2: replicas are recovered periodically even if there is no
reason to suspect them faulty, countering the correlation between runtime
and failure probability.  We run leak-prone implementations under load with
and without the recovery watchdog and count aging crashes.
"""

from repro.bench.metrics import ExperimentTable
from repro.bench.workloads import write_heavy
from repro.bft.config import BFTConfig
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import MemFS
from repro.nfs.relay import NFSDeployment

from benchmarks.conftest import show

AGING_THRESHOLD = 12_000
OPS = 250
RECOVERY_PERIOD = 0.8


def _run(recovery_period: float):
    dep = NFSDeployment(
        {
            rid: (
                lambda disk, i=i: MemFS(
                    disk=disk, seed=20 + i, aging_threshold=AGING_THRESHOLD
                )
            )
            for i, rid in enumerate(["R0", "R1", "R2", "R3"])
        },
        num_objects=64,
        config=BFTConfig(
            checkpoint_interval=16, log_window=64, recovery_period=recovery_period
        ),
    )
    if recovery_period:
        dep.cluster.start_proactive_recovery()
    fs = NFSClient(dep.relay("C0"))
    completed = 0
    try:
        for chunk in range(OPS // 25):
            write_heavy(fs, 25, payload=512, seed=chunk)
            completed += 25
            dep.sim.run_for(0.2)
    except Exception:
        dep.cluster.client("C0").cancel()
    dep.sim.run_for(2.0)
    crashes = sum(
        host.replica.counters.get("implementation_crashes")
        for host in dep.cluster.hosts.values()
    )
    recoveries = sum(
        host.replica.counters.get("recoveries_completed")
        for host in dep.cluster.hosts.values()
    )
    return {
        "recovery_period": recovery_period,
        "ops_completed": completed,
        "aging_crashes": crashes,
        "recoveries": recoveries,
    }


def test_rejuvenation_counters_aging():
    rows = [_run(0.0), _run(RECOVERY_PERIOD)]

    table = ExperimentTable("E10: aging crashes with and without rejuvenation")
    for row in rows:
        table.add_row(
            recovery_period=row["recovery_period"] or "off",
            ops_completed=row["ops_completed"],
            aging_crashes=row["aging_crashes"],
            recoveries=row["recoveries"],
        )
    show(table)

    without, with_recovery = rows
    # Without rejuvenation every replica eventually ages out and crashes.
    assert without["aging_crashes"] >= 2
    # With frequent rejuvenation, leaks are cleared before the threshold.
    assert with_recovery["aging_crashes"] < without["aging_crashes"]
    assert with_recovery["ops_completed"] == OPS
    assert with_recovery["recoveries"] >= 4
