"""E5 — window of vulnerability vs overhead (paper section 4).

The paper quotes its 30% Andrew overhead "with a window of vulnerability of
17 minutes": more frequent proactive recovery shrinks the window but costs
throughput.  We sweep the recovery period and report both sides of the
trade-off.  The window of vulnerability is approximated as in OSDI'00:
roughly two watchdog periods plus the recovery time itself.
"""

from repro.bench.metrics import ExperimentTable
from repro.bench.workloads import write_heavy
from repro.nfs.client import NFSClient

from benchmarks.conftest import hetero_deployment, show

OPS = 120
PERIODS = [0.0, 8.0, 4.0, 2.0]


def _run_with_period(period: float):
    dep = hetero_deployment(recovery_period=period)
    if period:
        dep.cluster.start_proactive_recovery()
    fs = NFSClient(dep.relay("C0"))
    started = dep.sim.now()
    write_heavy(fs, OPS)
    elapsed = dep.sim.now() - started
    dep.sim.run_for(2.0)
    durations = [
        d for host in dep.cluster.hosts.values() for d in host.recovery_durations()
    ]
    recoveries = len(durations)
    max_recovery = max(durations) if durations else 0.0
    window = (2 * period + max_recovery) if period else float("inf")
    return {
        "period": period,
        "elapsed": elapsed,
        "recoveries": recoveries,
        "max_recovery_time": max_recovery,
        "window_of_vulnerability": window,
    }


def test_recovery_period_sweep():
    rows = [_run_with_period(period) for period in PERIODS]

    baseline_elapsed = rows[0]["elapsed"]
    table = ExperimentTable("E5: recovery period vs overhead and WoV")
    for row in rows:
        overhead = row["elapsed"] / baseline_elapsed
        table.add_row(
            recovery_period=row["period"] or "off",
            virtual_seconds=round(row["elapsed"], 3),
            overhead=round(overhead, 3),
            recoveries=row["recoveries"],
            window_of_vulnerability=(
                "∞" if row["window_of_vulnerability"] == float("inf")
                else round(row["window_of_vulnerability"], 2)
            ),
        )
    show(table)

    # Shape: shorter periods => more recoveries, more overhead.
    recoveries = [row["recoveries"] for row in rows]
    assert recoveries[0] == 0
    assert recoveries[-1] >= recoveries[1]
    overheads = [row["elapsed"] / baseline_elapsed for row in rows]
    assert overheads[-1] >= 1.0


def test_recovery_time_is_small_fraction_of_period():
    """Recoveries must be quick relative to the rotation (that is what makes
    staggering keep the service available)."""
    row = _run_with_period(4.0)
    assert row["recoveries"] >= 1
    assert row["max_recovery_time"] < 4.0 / 4
