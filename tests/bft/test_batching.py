"""Batching under pipelining: the primary proposes the next batch only while
fewer than ``max_outstanding`` of its unexecuted instances are still short of
their prepared certificate (``Replica.try_send_pre_prepare``).

With ``pipeline_depth`` 0 the bound is vacuous (unprepared <= unexecuted <=
``max_outstanding``), so the slow path's counts are the ones recorded before
the rule existed; with ``pipeline_depth`` 8 it is what folds concurrent
writers into one PRE-PREPARE.  The numbers pinned below were recorded on the
commit before the rule and must not move with it.
"""

from __future__ import annotations

import pytest

from repro.bench.suites import closed_loop
from repro.bft.config import VARIANTS, BFTConfig
from repro.bft.testing import kv_cluster
from repro.nfs.client import NFSClient

from tests.nfs.test_fast_path import create_write_read, fast_deployment

SHAPE = dict(checkpoint_interval=16, log_window=64, batch_max=16)
FAST = dict(SHAPE, **VARIANTS["speculation"].overrides)
COUNTS = ("pre_prepares_sent", "batched_requests", "messages_sent")


def forming(replica):
    """Instances the primary pre-prepared in its view, has not executed, and
    has not yet sent its own COMMIT for — counted from the log, not by the
    method under test."""
    slots = (
        replica.log.get(replica.view, seqno)
        for seqno in range(replica.last_executed + 1, replica.next_seqno + 1)
    )
    return sum(
        1 for slot in slots if slot and slot.pre_prepare is not None and not slot.sent_commit
    )


def counts(cluster):
    totals = cluster.total_counters()
    return tuple(totals.get(name) for name in COUNTS)


@pytest.mark.parametrize("max_outstanding", [1, 2, 3])
def test_concurrent_writers_are_batched_and_the_bound_holds_at_every_step(max_outstanding):
    cluster = kv_cluster(config=BFTConfig(max_outstanding=max_outstanding, **FAST))
    primary = cluster.replica("R0")
    clients = [cluster.client(f"C{index}") for index in range(16)]
    seen = []
    cluster.sim.add_step_hook(lambda: seen.append(forming(primary)))
    latencies = closed_loop(cluster, clients, 25, 16)
    cluster.settle()
    requests = len(latencies)
    pre_prepares, batched, _messages = counts(cluster)
    assert requests == 16 * 25 and batched == requests
    # 62 / 112 / 157 PRE-PREPAREs for the 400 requests (262 with no bound):
    # the fewer instances may be forming, the more each one carries.
    assert pre_prepares < requests / (3 if max_outstanding <= 2 else 2)
    # The bound is reached (it is what batches) and never exceeded.
    assert max(seen) == max_outstanding
    assert cluster.total_counters().get("spec_rollbacks") == 0


def test_a_lone_request_is_never_held():
    """One sequential client on the fast path: nothing is ever forming when
    its next request arrives, so every request is its own batch and the
    message count is the one recorded before the rule."""
    dep = fast_deployment()
    fs = NFSClient(dep.relay("C0"))
    fs.mkdir("/d")
    create_write_read(fs, 20)
    dep.sim.run_for(3.0)
    assert counts(dep.cluster) == (61, 61, 4446)


def test_slow_path_counts_are_the_ones_recorded_before_the_rule():
    """``kv_throughput``'s shape (4 closed-loop writers, 25 ops each)."""
    cluster = kv_cluster(config=BFTConfig(**SHAPE))
    clients = [cluster.client(f"C{index}") for index in range(4)]
    assert len(closed_loop(cluster, clients, 25, 16)) == 100
    cluster.settle(1.0)
    assert counts(cluster) == (93, 100, 3362)


def test_requests_held_behind_an_instance_that_cannot_prepare_are_all_acknowledged():
    """Two backups are cut off mid-run: the primary's forming instances can
    no longer prepare, and what arrives waits in ``pending`` behind them —
    with the backups' request timers running, as behind a full pipeline.  The
    view change after the heal orders everything; no client retransmits more
    than it did, on this seed, before requests were ever held."""
    cluster = kv_cluster(config=BFTConfig(**FAST), seed=3)
    primary = cluster.replica("R0")
    clients = [cluster.client(f"C{index}") for index in range(16)]
    held = []

    def watch():
        if primary.pending and forming(primary) == primary.config.max_outstanding:
            held.append(len(primary.pending))

    cluster.sim.add_step_hook(watch)
    cluster.sim.schedule(0.004, lambda: cluster.network.partition(("R0", "R1"), ("R2", "R3")))
    cluster.sim.schedule(0.4, cluster.heal)
    assert len(closed_loop(cluster, clients, 6, 16)) == 16 * 6
    cluster.settle()
    totals = cluster.total_counters()
    assert held and max(held) > 1, "nothing was ever held behind a stuck instance"
    assert totals.get("view_changes_completed") > 0
    retransmissions = sum(client.counters.get("request_retransmissions") for client in clients)
    assert retransmissions <= 32  # two per client: what the partition itself costs
