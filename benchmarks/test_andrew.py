"""E3 — the Andrew benchmark (paper section 4).

Paper claim: the replicated file system's overhead over the unreplicated NFS
implementation it wraps is ≈30% on a scaled-up Andrew benchmark, with
proactive recovery configured for a 17-minute window of vulnerability.

We run the five Andrew phases against (a) the unreplicated baseline, (b) the
BASE-replicated heterogeneous service, and (c) the replicated service with a
proactive-recovery rotation running — and report the virtual-time overhead
ratios per phase.  The run itself is :func:`repro.bench.andrew.andrew_comparison`,
the one ``repro andrew`` prints.
"""

from repro.bench.andrew import andrew_comparison
from repro.bench.metrics import ExperimentTable

from benchmarks.conftest import show

SCALE = 2


def test_andrew_overhead_vs_baseline():
    run = andrew_comparison(SCALE)
    show(run.table("E3: Andrew benchmark — replicated vs unreplicated (virtual seconds)"))

    # Shape assertion: replication costs something, but stays in the same
    # ballpark the paper reports (not 5x).
    assert 1.0 < run.overhead < 2.5
    # All replicas executed the whole workload identically.
    dep = run.deployment
    dep.sim.run_for(2.0)
    roots = {
        rid: dep.cluster.service(rid).current_node(0, 0)[1] for rid in dep.cluster.hosts
    }
    assert len(set(roots.values())) == 1
    # Most of Andrew's reads repeat one a replica already answered, with
    # nothing it read modified since: the library reuses that answer.
    reused = sum(
        dep.cluster.service(rid).manager.counters.get("read_answers_reused")
        for rid in dep.cluster.hosts
    )
    assert reused > 0


def test_andrew_with_proactive_recovery():
    """The paper's configuration: recoveries running during the benchmark."""
    run = andrew_comparison(SCALE, recovery_period=4.0)

    table = ExperimentTable("E3b: Andrew under proactive recovery")
    table.add_row(
        configuration="with recovery rotation",
        overhead=round(run.overhead, 3),
        recoveries_completed=run.deployment.cluster.total_counters().get(
            "recoveries_completed"
        ),
    )
    show(table)

    # The paper's ≈ 1.30 with recovery running; 1.279 here.  One 250 ms
    # view-change timeout per rebooted primary is what 1.57 looks like: a
    # planned reboot hands the view over and must go on costing none.
    assert run.overhead <= 1.35
    assert run.deployment.cluster.total_counters().get("request_timeouts") == 0
    run.deployment.sim.run_for(6.0)


def test_andrew_scale_sweep():
    """Overhead is flat across workload scale (no super-linear protocol
    costs): the ratio at scale 4 matches the ratio at scale 1."""
    table = ExperimentTable("E3d: Andrew overhead across scales")
    ratios = []
    for scale in (1, 2, 4):
        run = andrew_comparison(scale)
        ratios.append(run.overhead)
        table.add_row(
            scale=scale,
            baseline=round(run.baseline.total_seconds, 3),
            replicated=round(run.replicated.total_seconds, 3),
            overhead=round(run.overhead, 3),
        )
    show(table)
    assert max(ratios) - min(ratios) < 0.3  # flat, no blow-up with size


def test_andrew_message_costs():
    """Protocol-level costs behind the overhead: messages and bytes."""
    run = andrew_comparison(scale=1)
    costs = run.protocol_costs()
    operations = run.replicated.total_operations
    per_op = costs["messages"] / max(operations, 1)
    table = ExperimentTable("E3c: protocol cost per Andrew operation")
    table.add_row(
        operations=operations,
        messages=costs["messages"],
        bytes=costs["bytes"],
        messages_per_op=round(per_op, 1),
        mac_ops=costs["mac_ops"],
    )
    show(table)
    assert per_op > 4  # agreement is not free
