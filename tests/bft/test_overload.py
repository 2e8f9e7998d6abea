"""Overload robustness: the bounded admission queue, deterministic shedding,
Busy replies, batching fairness, request relay, and anti-storm damping."""

from collections import OrderedDict

import pytest

from repro.bft.config import BFTConfig
from repro.bft.messages import Busy, Request
from repro.bft.overload import EXPIRY_SWEEP_LIMIT, AdmissionQueue, OpenLoopLoadGenerator
from repro.bft.testing import encode_get, encode_set, kv_cluster


def req(client_id, reqid, op=b"op"):
    return Request(client_id=client_id, reqid=reqid, op=op)


# -- AdmissionQueue policy unit tests ------------------------------------------


def test_fifo_order_and_mapping_surface():
    q = AdmissionQueue(capacity=8, per_client=8, ttl=10.0)
    for i in range(3):
        outcome = q.admit(req("A", i + 1), now=float(i))
        assert outcome.admitted and not outcome.shed
    assert len(q) == 3
    assert bool(q)
    assert ("A", 1) in q
    assert list(q) == [("A", 1), ("A", 2), ("A", 3)]
    assert q.oldest_key() == ("A", 1)
    assert q.pop(("A", 1)).reqid == 1
    assert q.pop(("A", 9), None) is None
    with pytest.raises(KeyError):
        q.pop(("A", 9))
    q.clear()
    assert not q and len(q) == 0


def test_retransmission_refreshes_but_keeps_position():
    q = AdmissionQueue(capacity=8, per_client=8, ttl=1.0)
    q.admit(req("A", 1), now=0.0)
    q.admit(req("B", 1), now=0.1)
    refreshed = q.admit(req("A", 1), now=0.5)
    assert refreshed.refreshed and not refreshed.admitted
    # Position unchanged: A's request still precedes B's.
    assert list(q) == [("A", 1), ("B", 1)]
    # But liveness was refreshed: at t=1.05 only B (last seen 0.1) expires.
    expired = q.expire_stale(now=1.2)
    assert expired == [("B", 1)]
    assert list(q) == [("A", 1)]


def test_per_client_cap_sheds_the_flooder_only():
    q = AdmissionQueue(capacity=16, per_client=2, ttl=10.0)
    assert q.admit(req("A", 1), 0.0).admitted
    assert q.admit(req("A", 2), 0.0).admitted
    shed = q.admit(req("A", 3), 0.0)
    assert shed.shed and shed.shed_reason == "client_cap"
    # Another client is unaffected.
    assert q.admit(req("B", 1), 0.0).admitted
    assert q.queued_for("A") == 2 and q.queued_for("B") == 1


def test_capacity_evicts_heaviest_clients_newest_request():
    q = AdmissionQueue(capacity=4, per_client=3, ttl=10.0)
    q.admit(req("A", 1), 0.0)
    q.admit(req("A", 2), 0.0)
    q.admit(req("A", 3), 0.0)
    q.admit(req("B", 1), 0.0)
    # Full.  C's first request displaces A's *newest* — A is heaviest, and
    # light clients keep their FIFO place.
    outcome = q.admit(req("C", 1), 0.0)
    assert outcome.admitted
    assert outcome.evicted == ("A", 3)
    assert list(q) == [("A", 1), ("A", 2), ("B", 1), ("C", 1)]


def test_capacity_sheds_incoming_that_would_be_heaviest():
    q = AdmissionQueue(capacity=4, per_client=4, ttl=10.0)
    q.admit(req("A", 1), 0.0)
    q.admit(req("A", 2), 0.0)
    q.admit(req("B", 1), 0.0)
    q.admit(req("B", 2), 0.0)
    # A third request from A would tie/make A the heaviest: shed it rather
    # than churn B's slot.
    outcome = q.admit(req("A", 3), 0.0)
    assert outcome.shed and outcome.shed_reason == "capacity"
    assert len(q) == 4


def test_ttl_expiry_is_a_bounded_front_sweep():
    q = AdmissionQueue(capacity=64, per_client=64, ttl=1.0)
    for i in range(10):
        q.admit(req("A", i + 1), now=0.0)
    q.admit(req("B", 1), now=5.0)  # admission itself sweeps the stale front
    assert ("A", 1) not in q
    assert q.queued_for("A") < 10
    # The sweep is bounded per call; repeated sweeps drain the rest.
    while q.queued_for("A"):
        q.expire_stale(now=5.0)
    assert list(q) == [("B", 1)]


def test_purge_superseded_drops_older_reqids_only():
    q = AdmissionQueue(capacity=8, per_client=8, ttl=10.0)
    q.admit(req("A", 1), 0.0)
    q.admit(req("A", 3), 0.0)
    q.admit(req("A", 5), 0.0)
    q.admit(req("B", 2), 0.0)
    stale = q.purge_superseded("A", 3)
    assert sorted(stale) == [("A", 1), ("A", 3)]
    assert list(q) == [("A", 5), ("B", 2)]
    assert q.purge_superseded("C", 9) == []


def test_abandoned_requests_excludes_fresh_entries():
    q = AdmissionQueue(capacity=8, per_client=8, ttl=10.0)
    q.admit(req("A", 1), now=0.0)
    q.admit(req("B", 1), now=0.0)
    q.admit(req("B", 1), now=0.9)  # B's client is still retransmitting
    abandoned = q.abandoned_requests(now=1.0, age=0.5, limit=8)
    assert [(r.client_id, r.reqid) for r in abandoned] == [("A", 1)]
    assert q.abandoned_requests(now=1.0, age=0.5, limit=0) == []


def test_queue_validates_construction():
    with pytest.raises(ValueError):
        AdmissionQueue(capacity=0, per_client=1, ttl=1.0)
    with pytest.raises(ValueError):
        AdmissionQueue(capacity=1, per_client=0, ttl=1.0)


# -- replica-level shedding ----------------------------------------------------


def flood(cluster, replica_id, client_id, count, start_reqid=1):
    """Deliver ``count`` distinct authenticated requests straight to one
    replica, bypassing client-side one-outstanding discipline (a Byzantine
    client does not respect it)."""
    cluster.client(client_id)  # registers the client's MAC keys
    replica = cluster.replica(replica_id)
    for i in range(count):
        request = Request(
            client_id=client_id, reqid=start_reqid + i, op=encode_set(0, b"x")
        )
        request.auth = cluster.keys.make_authenticator(
            client_id, cluster.config.replica_ids, request.signable_bytes()
        )
        replica.on_message(request, client_id)


def test_flooding_client_cannot_grow_backup_memory():
    """A Byzantine client spraying distinct reqids is bounded by the
    per-client cap on every replica, with the evictions counted."""
    config = BFTConfig(admission_capacity=16, admission_per_client=4)
    cluster = kv_cluster(config=config)
    flood(cluster, "R1", "F0", count=100)
    backup = cluster.replica("R1")
    assert len(backup.pending) <= 4
    assert backup.counters.get("requests_shed") == 96
    assert backup.counters.get("requests_shed_client_cap") == 96
    assert backup.counters.get("pending_evicted") == 96


def test_total_capacity_bounds_many_flooding_clients():
    config = BFTConfig(admission_capacity=8, admission_per_client=8)
    cluster = kv_cluster(config=config)
    for i in range(6):
        flood(cluster, "R1", f"F{i}", count=4)
    backup = cluster.replica("R1")
    assert len(backup.pending) <= 8
    # 24 offered, 8 slots: every refusal (shed or evicted-for-a-newcomer)
    # shows up in the memory-bound counter.
    assert backup.counters.get("pending_evicted") == 16
    assert backup.counters.get("requests_shed") >= 1


def test_shedding_never_touches_protocol_messages():
    """Saturating admission on a backup must not impede ordering: protocol
    messages bypass the admission queue entirely."""
    config = BFTConfig(admission_capacity=8, admission_per_client=8)
    cluster = kv_cluster(config=config)
    for i in range(4):
        flood(cluster, "R1", f"F{i}", count=2)
    assert len(cluster.replica("R1").pending) == 8  # admission full
    client = cluster.client("C0")
    assert client.invoke(encode_set(1, b"through")) == b"OK"
    assert client.invoke(encode_get(1)) == b"through"


def test_primary_sends_busy_on_shed():
    """A shed at the primary is answered with an authenticated Busy whose
    hint scales with queue fill — proof of life plus a retry suggestion."""
    config = BFTConfig(admission_capacity=16, admission_per_client=1)
    cluster = kv_cluster(config=config)
    primary = cluster.replica("R0")
    heard = []

    def watch(src, dst, message):
        if isinstance(message, Busy):
            heard.append(message)
        return message

    cluster.network.add_interceptor(watch)
    # The pipeline cap keeps later floods queued, so the per-client cap trips.
    flood(cluster, "R0", "F0", count=8)
    assert primary.counters.get("busy_replies") >= 1
    cluster.sim.run_for(0.2)
    assert heard
    busy = heard[0]
    assert busy.client_id == "F0"
    assert busy.replica_id == "R0"
    assert busy.auth is not None
    assert busy.retry_after_micros >= int(
        cluster.config.client_retry_max * 1_000_000
    )


def test_backups_shed_silently():
    """Busy is a primary-only reply: a backup sheds without answering (the
    client would otherwise get 3f+1 Busy messages per shed multicast)."""
    config = BFTConfig(admission_capacity=16, admission_per_client=1)
    cluster = kv_cluster(config=config)
    flood(cluster, "R1", "F0", count=5)
    backup = cluster.replica("R1")
    assert backup.counters.get("requests_shed") == 4
    assert not backup.counters.get("busy_replies")


def test_batching_fairness_hot_client_cannot_starve_slow_one():
    """FIFO-by-enqueue admission means a hot client's stream cannot push a
    slow client's older request out of the next batch: the slow request is
    in the batch that the very next pre-prepare carries."""
    config = BFTConfig(batch_max=4, admission_capacity=64, admission_per_client=64)
    cluster = kv_cluster(config=config)
    primary = cluster.replica("R0")
    # Freeze ordering so requests accumulate in admission order.
    primary.recovering = True
    cluster.client("SLOW")
    slow = Request(client_id="SLOW", reqid=1, op=encode_set(1, b"slow"))
    slow.auth = cluster.keys.make_authenticator(
        "SLOW", cluster.config.replica_ids, slow.signable_bytes()
    )
    primary.on_message(slow, "SLOW")
    flood(cluster, "R0", "HOT", count=12)
    # The hot client retransmits its whole backlog: refreshes must not
    # improve its position either.
    flood(cluster, "R0", "HOT", count=12)
    assert primary.pending.oldest_key() == ("SLOW", 1)
    primary.recovering = False
    primary.try_send_pre_prepare()
    first_batch = primary.log.slot(0, primary.last_executed + 1).pre_prepare.requests
    assert len(first_batch) == config.batch_max
    assert ("SLOW", 1) in {(r.client_id, r.reqid) for r in first_batch}


def test_executed_request_purges_superseded_queue_entries():
    """Once reqid r executes for a client, queued reqids <= r are dead weight
    (at-most-once forbids their execution) and are dropped with a counter."""
    config = BFTConfig(admission_capacity=64, admission_per_client=64)
    cluster = kv_cluster(config=config)
    backup = cluster.replica("R1")
    backup_only = [
        req("C0", 1, encode_set(0, b"old")),
        req("C0", 2, encode_set(0, b"older")),
    ]
    client = cluster.client("C0")
    for request in backup_only:
        request.auth = cluster.keys.make_authenticator(
            "C0", cluster.config.replica_ids, request.signable_bytes()
        )
    client._reqid = 2  # the real client moves past the stale reqids
    backup.on_message(backup_only[0], "C0")
    backup.on_message(backup_only[1], "C0")
    assert len(backup.pending) == 2
    assert client.invoke(encode_set(0, b"new")) == b"OK"
    assert len(backup.pending) == 0
    assert backup.counters.get("pending_superseded") >= 1


# -- open-loop load generator --------------------------------------------------


def test_open_loop_generator_offers_at_fixed_rate():
    cluster = kv_cluster()
    clients = [cluster.client(f"L-{i}") for i in range(4)]
    ops = []

    def op_factory(client_id, seq):
        ops.append((client_id, seq))
        return encode_set(2, f"{client_id}:{seq}".encode())

    swarm = OpenLoopLoadGenerator(cluster.sim, clients, rate=100.0, op_factory=op_factory)
    swarm.start()
    cluster.sim.run_until(1.0)
    swarm.stop()
    # Open loop: ~100 requests offered over 1s regardless of completions.
    assert 95 <= swarm.offered <= 105
    assert swarm.offered == len(ops)
    assert swarm.completed > 0
    per_client = {c.node_id: 0 for c in clients}
    for client_id, _seq in ops:
        per_client[client_id] += 1
    assert max(per_client.values()) - min(per_client.values()) <= 1
    # stop() really stops: no further requests are offered.
    offered = swarm.offered
    cluster.sim.run_for(0.5)
    assert swarm.offered == offered


def test_open_loop_generator_cancels_stale_invocations():
    """When the cadence outruns completion, the stale invocation is cancelled
    (reload-button semantics) rather than blocking the next request."""
    cluster = kv_cluster()
    cluster.crash("R2")
    cluster.crash("R3")  # no quorum: nothing completes
    clients = [cluster.client("L-0")]
    swarm = OpenLoopLoadGenerator(
        cluster.sim, clients, rate=50.0, op_factory=lambda c, s: encode_set(2, b"x")
    )
    swarm.start()
    cluster.sim.run_until(0.5)
    swarm.stop()
    assert swarm.completed == 0
    assert swarm.cancelled >= 20
    assert clients[0]._current is None


def test_open_loop_generator_validates_inputs():
    cluster = kv_cluster()
    with pytest.raises(ValueError):
        OpenLoopLoadGenerator(cluster.sim, [], rate=10.0, op_factory=lambda c, s: b"")
    with pytest.raises(ValueError):
        OpenLoopLoadGenerator(
            cluster.sim, [cluster.client("L-0")], rate=0.0, op_factory=lambda c, s: b""
        )


# -- request relay and damping -------------------------------------------------


def test_backup_relays_abandoned_requests_before_view_change():
    """A request only a backup still holds (its client went quiet, the
    primary never saw it) is relayed to the primary at the timer's first
    no-progress firing — and ordering resumes without any view change."""
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"warm"))
    backup = cluster.replica("R1")
    cluster.client("GONE")
    orphan = Request(client_id="GONE", reqid=1, op=encode_set(3, b"orphan"))
    orphan.auth = cluster.keys.make_authenticator(
        "GONE", cluster.config.replica_ids, orphan.signable_bytes()
    )
    backup.on_message(orphan, "GONE")
    assert ("GONE", 1) in backup.pending
    cluster.sim.run_for(2.0)
    assert backup.counters.get("requests_relayed") >= 1
    assert not backup.counters.get("request_timeouts")
    assert ("GONE", 1) not in backup.pending  # ordered after the relay
    assert cluster.replica("R0").view == 0
    assert client.invoke(encode_get(3)) == b"orphan"


def test_crashed_primary_still_triggers_prompt_view_change():
    """Damping and relay must not defang failover: with the primary dead and
    a live retransmitting client, the view change fires."""
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"warm"))
    cluster.crash("R0")
    assert client.invoke(encode_set(0, b"after"), timeout=30.0) == b"OK"
    assert cluster.replica("R1").view >= 1


def test_damping_requires_local_overload_evidence():
    """A near-empty admission queue means a stall is not saturation: the
    damping path stays cold on an idle cluster with one stuck request."""
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"warm"))
    cluster.crash("R0")
    client.invoke(encode_set(0, b"fail-over"), timeout=30.0)
    for replica_id in ("R1", "R2", "R3"):
        assert not cluster.replica(replica_id).counters.get("view_changes_damped")


def _full_queue():
    """64 entries from eight clients, the front row refreshed in part."""
    q = AdmissionQueue(capacity=64, per_client=16, ttl=1.0)
    for i in range(64):
        assert q.admit(req(f"C{i % 8}", i // 8 + 1), now=i * 0.01).admitted
    for client in ("C1", "C4"):
        assert q.admit(req(client, 1), now=1.5).refreshed
    return q


def test_sweep_at_capacity_expires_the_same_keys_in_the_same_order():
    q = _full_queue()
    outcome = q.admit(req("C9", 1), now=2.0)
    assert outcome.expired == [("C0", 1), ("C2", 1), ("C3", 1), ("C5", 1), ("C6", 1), ("C7", 1)]
    assert outcome.admitted and outcome.evicted is None
    assert list(q)[:3] == [("C1", 1), ("C4", 1), ("C0", 2)]
    # The two live entries still count toward the eight looked at.
    assert q.expire_stale(now=2.0) == [("C0", 2), ("C1", 2), ("C2", 2), ("C3", 2), ("C4", 2), ("C5", 2)]
    assert len(q) == 53


def test_sweep_at_capacity_examines_at_most_the_limit():
    class Counting(OrderedDict):
        looked_up = 0

        def __getitem__(self, key):
            Counting.looked_up += 1
            return super().__getitem__(key)

    q = _full_queue()
    q._entries = Counting(q._entries)
    expired = q.expire_stale(now=10.0)
    assert expired == [(f"C{i}", 1) for i in range(EXPIRY_SWEEP_LIMIT)]
    assert Counting.looked_up <= EXPIRY_SWEEP_LIMIT
    assert len(q) == 64 - EXPIRY_SWEEP_LIMIT
