"""Parked reads, the request timer, and the client's adaptive read set.

A read-only request a replica cannot answer at the instant it arrives (an
open speculation frame, no lease for the view, a lease floor not yet
executed) is held at that replica and answered through the same admission
check when the thing it waited for happens — to the client, a request the
network delivered later.  These tests drive single replicas by hand: they
withhold chosen messages from one backup, deliver reads to it directly, and
watch which replies leave it and when.  Every test here fails at the commit
before parking, where the refused read was silently dropped.
"""

from __future__ import annotations

import random

import pytest

from repro.bft.config import VARIANTS, BFTConfig
from repro.bft.messages import Commit, Lease, NewView, Prepare, PrePrepare, Reply, Request
from repro.bft.testing import encode_get, encode_set, kv_cluster
from repro.util.errors import FaultInjected

SHAPE = dict(checkpoint_interval=8, log_window=16)
SPECULATION = dict(SHAPE, **VARIANTS["speculation"].overrides)
FAST_PATH = dict(SHAPE, **VARIANTS["fast-path"].overrides)
ORDERING = (PrePrepare, Prepare, Commit)


def cluster_with(**config):
    return kv_cluster(config=BFTConfig(**config), seed=5)


class Reader:
    """A principal that hands read-only requests straight to one replica —
    the network delivering them at exactly this instant — and records every
    reply at the instant a replica sends it."""

    def __init__(self, cluster, node_id="RD"):
        self.cluster = cluster
        self.node_id = node_id
        self.replies = []  # (replica, reqid, result)
        cluster.network.register(node_id, lambda message, src: None)
        cluster.network.add_interceptor(self._on_send)

    def _on_send(self, src, dst, message):
        if dst == self.node_id and isinstance(message, Reply) and message.read_only:
            self.replies.append((src, message.reqid, message.result))
        return message

    def request(self, reqid, op, read_only=True):
        request = Request(client_id=self.node_id, reqid=reqid, op=op, read_only=read_only)
        request.auth = self.cluster.keys.make_authenticator(
            self.node_id, self.cluster.config.replica_ids, request.signable_bytes()
        )
        return request

    def read(self, replica_id, reqid, slot=3):
        self.cluster.replica(replica_id).on_message(
            self.request(reqid, encode_get(slot)), self.node_id
        )


def withhold(cluster, dst, *types):
    """Keep every message of ``types`` addressed to ``dst`` off the network;
    returns the list they collect in as ``(src, message)``."""
    held = []

    def interceptor(src, to, message):
        if to == dst and isinstance(message, types):
            held.append((src, message))
            return None
        return message

    cluster.network.add_interceptor(interceptor)
    return held


def counter(cluster, replica_id, name):
    return cluster.replica(replica_id).counters.get(name)


# -- behind an open frame -------------------------------------------------------------


def frame_open_at_r2(cluster, writer):
    """One committed write, then a second one R2 has speculated and cannot
    commit: its frame stays open for as long as the commits are withheld."""
    assert writer.invoke(encode_set(3, b"old")) == b"OK"
    cluster.settle()
    commits = withhold(cluster, "R2", Commit)
    box = []
    writer.invoke_async(encode_set(3, b"new"), box.append)
    assert cluster.sim.run_until_condition(lambda: bool(box), timeout=5.0)
    cluster.settle(0.02)
    r2 = cluster.replica("R2")
    assert len(r2.fast_path.spec_frames) == 1 and r2.last_executed == 1
    return r2, commits


@pytest.mark.parametrize("config", [SPECULATION, FAST_PATH], ids=["speculation-only", "leases"])
def test_read_behind_an_open_frame_waits_for_the_promotion(config):
    cluster = cluster_with(**config)
    r2, commits = frame_open_at_r2(cluster, cluster.client("W"))
    reader = Reader(cluster)
    reader.read("R2", reqid=1)
    assert reader.replies == [] and list(r2.fast_path.parked) == ["RD"]
    # Nothing that happens while the frame is open answers it, or counts it
    # a second time.
    r2.execute_ready()
    r2.fast_path.serve_parked()
    cluster.settle(0.02)
    assert reader.replies == []
    assert counter(cluster, "R2", "reads_parked") == 1
    assert counter(cluster, "R2", "read_only_deferred") == 1
    # The commit certificate arrives: the frame promotes, the read runs
    # against what is now committed state (with leases: under the lease
    # granted after the write, whose floor this execution reaches).
    for src, commit in commits[:2]:
        r2.on_message(commit, src)
    assert r2.fast_path.spec_frames == [] and r2.last_executed == 2
    assert reader.replies == [("R2", 1, b"new")]
    assert r2.fast_path.parked == {}
    assert counter(cluster, "R2", "parked_reads_served") == 1
    assert counter(cluster, "R2", "read_only_deferred") == 1


def test_rolled_back_frame_serves_the_pre_speculation_value():
    cluster = cluster_with(**SPECULATION)
    r2, _commits = frame_open_at_r2(cluster, cluster.client("W"))
    reader = Reader(cluster)
    reader.read("R2", reqid=1)
    assert r2.service.cells[3] == b"new" and reader.replies == []
    r2.fast_path.rollback("test")
    assert reader.replies == []  # never from inside the rollback
    r2.execute_ready()
    assert reader.replies == [("R2", 1, b"old")]


# -- without a lease --------------------------------------------------------------------


def test_read_without_a_lease_waits_for_the_lease_and_its_floor():
    cluster = cluster_with(**FAST_PATH)
    leases = withhold(cluster, "R2", Lease)
    writer = cluster.client("W")
    assert writer.invoke(encode_set(3, b"one")) == b"OK"
    cluster.settle()
    r2 = cluster.replica("R2")
    assert r2.fast_path.lease is None and r2.last_executed == 1
    reader = Reader(cluster)
    reader.read("R2", reqid=1)
    cluster.settle(0.02)
    assert reader.replies == [] and counter(cluster, "R2", "leased_reads_refused") == 1
    # The next write passes R2 by entirely; the lease granted after it
    # carries a floor R2 has not executed.
    withhold(cluster, "R2", Request, *ORDERING)
    assert writer.invoke(encode_set(3, b"two")) == b"OK"
    cluster.settle(0.01)
    src, lease = leases[-1]
    assert lease.seqno == 2 and r2.last_executed == 1
    r2.on_message(lease, src)
    assert r2.fast_path.lease == (0, lease.epoch, 2)
    assert reader.replies == []  # lease held, floor not reached: not yet
    # Catch-up retransmits the committed batch; executing it reaches the floor.
    assert cluster.sim.run_until_condition(lambda: r2.last_executed == 2, timeout=1.0)
    assert reader.replies == [("R2", 1, b"two")]
    # Refused once on arrival; the re-admission attempts since did not count.
    assert counter(cluster, "R2", "leased_reads_refused") == 1
    assert counter(cluster, "R2", "reads_parked") == 1
    assert counter(cluster, "R2", "parked_reads_served") == 1


def lease_less_r2():
    """A fast-path cluster whose R2 never receives a lease."""
    cluster = cluster_with(**FAST_PATH)
    leases = withhold(cluster, "R2", Lease)
    assert cluster.client("W").invoke(encode_set(3, b"one")) == b"OK"
    assert cluster.client("W").invoke(encode_set(4, b"four")) == b"OK"
    cluster.settle()
    return cluster, cluster.replica("R2"), leases


def test_newer_read_from_the_same_client_replaces_the_older():
    cluster, r2, leases = lease_less_r2()
    reader = Reader(cluster)
    reader.read("R2", reqid=1, slot=3)
    reader.read("R2", reqid=2, slot=4)
    reader.read("R2", reqid=1, slot=3)  # a late duplicate of the older one
    assert r2.fast_path.parked["RD"].reqid == 2
    assert counter(cluster, "R2", "reads_parked") == 2
    assert counter(cluster, "R2", "parked_reads_dropped") == 1
    src, lease = leases[-1]
    r2.on_message(lease, src)
    assert reader.replies == [("R2", 2, b"four")]


def test_parked_read_of_a_client_that_moved_on_is_never_answered():
    cluster, r2, leases = lease_less_r2()
    reader = Reader(cluster)
    reader.read("R2", reqid=1)
    assert list(r2.fast_path.parked) == ["RD"]
    # The client gives up on reqid 1; its reqid 2, an ordered request, executes.
    ordered = reader.request(2, encode_set(5, b"five"), read_only=False)
    cluster.network.multicast("RD", cluster.config.replica_ids, ordered)
    cluster.settle()
    assert r2.service.manager.last_recorded("RD")[0] == 2
    src, lease = leases[-1]
    r2.on_message(lease, src)
    assert r2.fast_path.parked == {} and reader.replies == []
    assert counter(cluster, "R2", "parked_reads_dropped") == 1
    assert counter(cluster, "R2", "parked_reads_served") == 0


def test_fault_during_a_parked_read_crashes_the_replica_once():
    cluster, r2, leases = lease_less_r2()
    first, second = Reader(cluster, "RD1"), Reader(cluster, "RD2")
    first.read("R2", reqid=1)
    second.read("R2", reqid=1)

    def dying(op, client_id, nondet, read_only=False):
        raise FaultInjected("implementation died on a read")

    r2.service.execute = dying
    src, lease = leases[-1]
    r2.on_message(lease, src)
    assert counter(cluster, "R2", "implementation_crashes") == 1
    assert r2._stopped and list(r2.fast_path.parked) == ["RD2"]  # the loop stopped
    assert first.replies == [] and second.replies == []


# -- across a view change -----------------------------------------------------------------


def hand_off_with_new_view_withheld(cluster, *backups):
    """R0 hands the view over and reboots; ``backups`` follow it into the
    view change and stay there, their NEW-VIEWs collected instead."""
    held = [withhold(cluster, backup, NewView) for backup in backups]
    assert cluster.recover("R0")
    cluster.settle(0.005)
    assert cluster.replica("R1").view == 1
    for backup in backups:
        assert cluster.replica(backup).view_changes.in_view_change
    return held


def test_read_arriving_during_a_view_change_is_answered_in_the_new_view():
    """It used to be dropped on arrival, and with the old primary rebooting
    no 2f+1 could form: the client sat out read_only_timeout and re-issued
    the read as an ordered request."""
    cluster = cluster_with(**SPECULATION)
    writer, reader = cluster.client("W"), cluster.client("RD")
    assert writer.invoke(encode_set(3, b"one")) == b"OK"
    cluster.settle()
    held = hand_off_with_new_view_withheld(cluster, "R2", "R3")
    read = []
    reader.invoke_async(encode_get(3), read.append, read_only=True)
    cluster.settle(0.005)
    assert read == []  # R1 alone has answered
    assert [list(cluster.replica(r).fast_path.parked) for r in ("R2", "R3")] == [["RD"], ["RD"]]
    for backup, new_views in zip(("R2", "R3"), held):
        src, new_view = new_views[0]
        cluster.replica(backup).on_message(new_view, src)
        assert cluster.replica(backup).view == 1
        assert cluster.replica(backup).fast_path.parked == {}
        assert counter(cluster, backup, "parked_reads_served") == 1
        assert counter(cluster, backup, "parked_reads_dropped") == 0
    cluster.settle(0.005)
    assert read == [b"one"]
    assert reader.counters.get("read_only_fallbacks") == 0
    assert reader.counters.get("request_retransmissions") == 0


def test_leased_read_parked_across_a_view_change_waits_for_the_new_lease():
    cluster = cluster_with(**FAST_PATH)
    assert cluster.client("W").invoke(encode_set(3, b"one")) == b"OK"
    cluster.settle()
    leases = withhold(cluster, "R2", Lease)
    (new_views,) = hand_off_with_new_view_withheld(cluster, "R2")
    r2 = cluster.replica("R2")
    reader = Reader(cluster)
    reader.read("R2", reqid=1)
    assert reader.replies == [] and list(r2.fast_path.parked) == ["RD"]
    src, new_view = new_views[0]
    r2.on_message(new_view, src)
    # In view 1 now, but the old view's lease died with it: not yet.
    assert r2.view == 1 and r2.fast_path.lease is None
    assert reader.replies == [] and list(r2.fast_path.parked) == ["RD"]
    src, lease = leases[-1]
    assert lease.view == 1 and src == "R1"
    r2.on_message(lease, src)
    assert reader.replies == [("R2", 1, b"one")]
    assert counter(cluster, "R2", "leased_reads_refused") == 1
    assert counter(cluster, "R2", "parked_reads_served") == 1
    assert counter(cluster, "R2", "parked_reads_dropped") == 0


# -- end to end --------------------------------------------------------------------------------


def test_reads_racing_writes_need_no_fallback():
    """The shape that took 85 % of reads to the ordered path: closed-loop
    clients alternating writes and leased reads.  The reads arrive behind
    open frames and revoked leases, wait there, and none times out."""
    cluster = cluster_with(**FAST_PATH)
    rng = random.Random(5)
    clients = [cluster.client(f"C{i}") for i in range(8)]
    done = []

    def step(index, number):
        if number == 20:
            done.append(index)
        elif number % 2:
            clients[index].invoke_async(
                encode_get(rng.randrange(8)), lambda _r: step(index, number + 1), read_only=True
            )
        else:
            clients[index].invoke_async(
                encode_set(index, b"v%d" % number), lambda _r: step(index, number + 1)
            )

    for index in range(8):
        step(index, 0)
    assert cluster.sim.run_until_condition(lambda: len(done) == 8, timeout=30.0)
    totals = cluster.total_counters()
    assert totals.get("read_only_invokes") == 80
    assert totals.get("read_only_fallbacks") == 0
    assert totals.get("reads_parked") > 0
    assert totals.get("parked_reads_served") == totals.get("reads_parked")
    assert totals.get("leased_reads_served") == 3 * 80


# -- the request timer ----------------------------------------------------------------------------


def test_superseded_request_timers_do_not_pile_up_in_the_simulator():
    """Every executed batch re-arms the request timer; the timer it replaces
    is cancelled, not left to fire as a no-op 0.25 virtual seconds later."""
    cluster = kv_cluster()
    client = cluster.client("C0")
    for i in range(200):
        assert client.invoke(encode_set(i % 8, b"v%d" % i)) == b"OK"
    # Per replica one status timer and at most one request timer, plus the
    # last replies still in flight: 6 events (374 before — the timer of every
    # batch executed in the last quarter of a virtual second was still queued).
    assert cluster.sim.pending_events() <= 12
    cluster.settle()
    assert cluster.sim.pending_events() == 4


def test_silent_primary_is_still_blamed_at_the_same_instant():
    cluster = kv_cluster()
    client = cluster.client("C0")
    for i in range(5):
        assert client.invoke(encode_set(i, b"v")) == b"OK"
    cluster.settle()
    cluster.crash("R0")
    sent_at = cluster.sim.now()
    client.invoke_async(encode_set(1, b"w"), lambda _result: None)
    backups = [cluster.replica(r) for r in ("R1", "R2", "R3")]
    assert cluster.sim.run_until_condition(
        lambda: any(b.view_changes.in_view_change for b in backups), timeout=5.0
    )
    # The request's latency to the first backup, then view_change_timeout
    # exactly: the instant recorded at the commit whose timers were never
    # cancelled, as is the instant every backup has adopted view 1.
    assert round(cluster.sim.now() - sent_at, 9) == 0.250504826
    assert cluster.sim.run_until_condition(lambda: all(b.view == 1 for b in backups), timeout=5.0)
    assert round(cluster.sim.now(), 9) == 0.765334516


# -- the client's read set ------------------------------------------------------------------------


MIXED = dict(FAST_PATH, checkpoint_interval=16, log_window=64, batch_max=16)


def mixed_run(seed, crash, crash_at=None, clients=16, ops_per_client=76):
    """A ``kv_fast_rw``-shaped run (perf/workloads.py) that loses a replica:
    client ``i`` alone writes slot ``i``, every other op is a leased read of
    a random slot, and a read must return a value its writer had issued and
    not yet overwritten.  Returns (read fallbacks per client, wrong results)."""
    cluster = kv_cluster(config=BFTConfig(**MIXED), seed=seed)
    rng = random.Random(seed)
    issued = [[b""] for _ in range(clients)]
    acked = [0] * clients
    wrong, done = [], []

    def step(index, client, number):
        if number == ops_per_client:
            done.append(index)
        elif number % 2:
            slot = rng.randrange(clients)
            oldest = acked[slot]

            def on_get(result):
                if result not in issued[slot][oldest:]:
                    wrong.append((index, number, result))
                step(index, client, number + 1)

            client.invoke_async(encode_get(slot), on_get, read_only=True)
        else:
            issued[index].append(b"%d.%d" % (index, number))
            position = len(issued[index]) - 1

            def on_set(_result):
                acked[index] = position
                step(index, client, number + 1)

            client.invoke_async(encode_set(index, issued[index][-1]), on_set)

    if crash_at is None:
        cluster.crash(crash)
    else:
        cluster.sim.schedule(crash_at, lambda: cluster.crash(crash))
    handles = [cluster.client(f"C{index}") for index in range(clients)]
    for index, client in enumerate(handles):
        step(index, client, 0)
    assert cluster.sim.run_until_condition(lambda: len(done) == clients, timeout=600.0)
    return [client.counters.get("read_only_fallbacks") for client in handles], wrong


# Seeds on which no client has two reads race a write: a leased read needs
# all three of the replicas left to agree, so such a read times out whatever
# the client does, and the replica it then demotes makes room for the crashed
# one, which costs a second timeout to find again.  Over seeds 1-8 the worst
# client saw 1-5 of its 38 reads fall back with R1 down and 2-4 with the
# primary crashed; the sum over the 16 clients was 16-24 and 26-31.
QUIET_SEEDS = [3, 4, 7]


@pytest.mark.parametrize("seed", QUIET_SEEDS)
def test_crashed_replica_in_the_read_set_costs_one_timeout_per_client(seed):
    """Leased reads go to the first 2f+1 replicas of the client's preference
    order — R0, R1, R2 to begin with.  With R1 down every one of them used to
    wait out the 50 ms timeout (38 of 38 per client); now the first does, and
    the client asks R1 last from then on."""
    fallbacks, wrong = mixed_run(seed, crash="R1")
    assert wrong == []
    assert fallbacks == [1] * 16


@pytest.mark.parametrize("seed", QUIET_SEEDS)
def test_primary_crash_mid_run_costs_at_most_two_timeouts_per_client(seed):
    """One while every replica sits on the read behind the dead primary's
    unfinished writes (nobody answers, so nothing is learnt), one to find the
    primary silent; 37 or 38 of 38 before."""
    fallbacks, wrong = mixed_run(seed, crash="R0", crash_at=0.05)
    assert wrong == []
    assert max(fallbacks) <= 2
