"""E7 — fault-injection availability (the paper's proposed experiment).

"It would also be important to run fault injection experiments to evaluate
the availability improvements afforded by our technique."

We measure availability (fraction of probe operations answered within a
budget) under a matrix of fault scenarios, on the KV service for speed.
"""

from repro.bench.metrics import ExperimentTable
from repro.bft.config import BFTConfig
from repro.bft.repair import RepairPolicy
from repro.bft.testing import encode_set, kv_cluster, recording_cluster
from repro.faults import (
    POISON,
    AvailabilityProbe,
    make_equivocating_primary,
    make_lying_checkpointer,
    make_result_corruptor,
)

from benchmarks.conftest import show

PROBE_OPS = 40


def _availability(prepare):
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=16, log_window=64))
    client = cluster.client("Cprobe")
    client.invoke(encode_set(0, b"warm"))
    prepare(cluster)
    probe = AvailabilityProbe(
        cluster.sim,
        client,
        make_op=lambda i: encode_set(i % 8, bytes([i % 251])),
        op_timeout=2.0,
    )
    probe.run(PROBE_OPS)
    return probe.summary()


SCENARIOS = [
    ("no faults", lambda cluster: None),
    ("one crash (backup)", lambda cluster: cluster.crash("R3")),
    ("one crash (primary)", lambda cluster: cluster.crash("R0")),
    ("equivocating primary", lambda cluster: make_equivocating_primary(cluster.replica("R0"))),
    ("result corruptor", lambda cluster: make_result_corruptor(cluster.replica("R2"))),
    ("checkpoint liar", lambda cluster: make_lying_checkpointer(cluster.replica("R1"))),
    (
        "two crashes (> f)",
        lambda cluster: (cluster.crash("R2"), cluster.crash("R3")),
    ),
]


def test_availability_matrix():
    results = [(name, _availability(prepare)) for name, prepare in SCENARIOS]

    table = ExperimentTable("E7: availability under injected faults")
    for name, summary in results:
        table.add_row(
            scenario=name,
            availability=round(summary.availability, 3),
            mean_latency=round(summary.mean_latency, 4),
            max_latency=round(summary.max_latency, 4),
        )
    show(table)

    by_name = dict(results)
    # With at most f faults — crash or Byzantine — availability holds.
    for tolerated in (
        "no faults",
        "one crash (backup)",
        "one crash (primary)",
        "equivocating primary",
        "result corruptor",
        "checkpoint liar",
    ):
        assert by_name[tolerated].availability == 1.0, tolerated
    # Beyond f the service must stall (no quorum): availability collapses.
    assert by_name["two crashes (> f)"].availability < 0.2


def test_latency_under_primary_crash():
    """Fail-over cost: the view change shows up as one latency spike, not as
    an outage."""
    summary = _availability(lambda cluster: cluster.crash("R0"))
    assert summary.availability == 1.0
    assert summary.max_latency > summary.mean_latency * 2


def _mttr_run(poison_persists):
    """One implementation-crash repair episode on R2; returns (supervisor,
    host) after the episode closes.

    ``poison_persists`` False models a transient implementation fault (the
    rebuilt instance is clean — one reactive repair suffices); True models a
    deterministic input-triggered bug (the supervisor must classify the
    crash loop and skip state transfer past the poisoning operation)."""
    poisoned = set()
    cluster, _recorder = recording_cluster(
        config=BFTConfig(checkpoint_interval=8, log_window=32),
        repair=RepairPolicy(
            backoff_initial=0.02, backoff_max=0.2, deterministic_after=2, failover_after=8
        ),
        poisoned=poisoned,
    )
    client = cluster.client("C0")
    for i in range(8):
        client.invoke(encode_set(i % 8, bytes([i])))
    poisoned.add("R2")
    cluster.client("P0").invoke(encode_set(9, POISON))
    if not poison_persists:
        poisoned.discard("R2")
    # Quiet period: the newest certificate still predates the poison, so the
    # rebuilt replica re-executes the poisoning suffix (re-crashing in the
    # deterministic case until the supervisor requests a skip).
    cluster.settle(1.0)
    # Resume ordering traffic: the deterministic case needs the quorum to
    # stabilize a checkpoint past the poison before R2 can adopt it.
    for i in range(24):
        client.invoke(encode_set(i % 8, bytes([i % 251, 7])))
    cluster.settle(4.0)
    return cluster.host("R2").supervisor, cluster.host("R2")


def test_mttr_per_host():
    """E7b — per-host MTTR (first crash to order-consistent again) for the
    containment supervisor, transient vs deterministic implementation bugs."""
    results = [
        ("transient crash", *_mttr_run(poison_persists=False)),
        ("deterministic bug", *_mttr_run(poison_persists=True)),
    ]

    table = ExperimentTable("E7b: repair time after implementation crashes")
    for name, supervisor, host in results:
        mttr = [round(end - start, 4) for start, end in supervisor.mttr_log]
        table.add_row(
            scenario=name,
            crashes=len(supervisor.crashes),
            repairs=supervisor.counters.get("supervisor_repairs_started"),
            skip_transfers=supervisor.counters.get("supervisor_skip_transfers"),
            recoveries=len(host.recovery_log),
            mttr=mttr,
        )
    show(table)

    by_name = {name: (sup, host) for name, sup, host in results}
    transient, _ = by_name["transient crash"]
    deterministic, _ = by_name["deterministic bug"]
    # Both faults were repaired: the episode closed and the replica is
    # order-consistent with the cluster again.
    assert len(transient.mttr_log) == 1
    assert len(deterministic.mttr_log) == 1
    # The transient fault needed exactly one crash; the deterministic bug
    # crash-looped until the supervisor skipped past the poison.
    assert len(transient.crashes) == 1
    assert len(deterministic.crashes) >= 2
    assert deterministic.counters.get("supervisor_skip_transfers") >= 1
    mttr_of = lambda sup: sup.mttr_log[0][1] - sup.mttr_log[0][0]
    assert mttr_of(transient) < mttr_of(deterministic)
