"""The view hand-off: a planned reboot of the primary costs no timeout.

A primary about to rejuvenate multicasts its own VIEW-CHANGE for v+1 before
it stops (OSDI'00 section 4.3); a backup in view v that holds a valid
VIEW-CHANGE for exactly v+1 from primary(v) starts its own at once instead
of waiting out its request timer.  These tests pin both halves, and every
refusal: the rule fires for that one sender and that one view only, after
the same validation every other VIEW-CHANGE gets, and everything else about
view changes (the f+1 join rule, the timer) is as it was.
"""

from __future__ import annotations

import pytest

from repro.bft.config import BFTConfig
from repro.bft.messages import ViewChange
from repro.bft.testing import encode_set, kv_cluster, recording_cluster

from tests.bft.history import (
    assert_order_consistent,
    assert_prefix_consistent,
    cumulative_histories,
)

SHAPE = dict(checkpoint_interval=8, log_window=16)


def warm_cluster(writes=20):
    cluster = kv_cluster(config=BFTConfig(**SHAPE))
    client = cluster.client("C0")
    for i in range(writes):
        assert client.invoke(encode_set(i % 8, bytes([i])), timeout=60) == b"OK"
    cluster.settle(1.0)
    return cluster, client


def signed_view_change(cluster, sender, new_view, sign_as=None):
    """What ``sender`` would multicast on starting a view change right now,
    built without starting one."""
    view_change = cluster.replica(sender).view_changes._build_view_change(new_view)
    if sign_as is not None:
        view_change.sig = cluster.sigs.keygen(sign_as).sign(view_change.signable_bytes())
    return view_change


def total(cluster, name):
    return cluster.total_counters().get(name)


# -- the hand-off ---------------------------------------------------------------------


def test_live_primary_hands_the_view_over_before_it_reboots():
    cluster, client = warm_cluster()
    started = cluster.sim.now()
    assert cluster.recover("R0")
    # The request leaves the client after the hand-off left R0: the old
    # primary never proposes it, every backup queues it.
    done = []
    client.invoke_async(encode_set(1, b"across"), done.append)
    assert cluster.sim.run_until_condition(
        lambda: total(cluster, "new_views_sent") == 1, timeout=0.005
    )
    assert cluster.sim.now() - started < 0.005
    # Answered inside the client's first retry interval, by the new view.
    # (Not asserted tighter: at this seed R1's pre-prepare overtakes its
    # NEW-VIEW on the way to R2 and R3, is refused as wrong-view and comes
    # again with the next status exchange — 48 vms, as after any view change.)
    assert cluster.sim.run_until_condition(lambda: bool(done), timeout=0.100)
    assert done == [b"OK"]
    assert client.counters.get("request_retransmissions") == 0
    assert [cluster.replica(r).view for r in ("R1", "R2", "R3")] == [1, 1, 1]
    assert total(cluster, "view_handoffs_sent") == 1
    assert total(cluster, "view_handoffs_followed") == 3
    assert total(cluster, "request_timeouts") == 0
    # The rebooted ex-primary learns the new view from status gossip and
    # the service goes on under R1.
    cluster.settle(1.0)
    assert cluster.replica("R0").view == 1 and not cluster.replica("R0").recovering
    assert client.invoke(encode_set(2, b"after"), timeout=60) == b"OK"
    assert total(cluster, "request_timeouts") == 0 and total(cluster, "new_views_sent") == 1


def test_backup_reboot_sends_no_hand_off():
    cluster, client = warm_cluster()
    sent = []
    cluster.network.add_interceptor(
        lambda src, dst, message: sent.append(src) if isinstance(message, ViewChange) else message
    )
    assert cluster.recover("R2")
    cluster.settle(1.0)
    assert sent == [] and total(cluster, "view_handoffs_sent") == 0
    assert total(cluster, "view_changes_started") == 0
    assert [replica.view for replica in cluster.replicas] == [0, 0, 0, 0]
    assert client.invoke(encode_set(1, b"after"), timeout=60) == b"OK"


def test_primary_already_in_a_view_change_does_not_vote_twice():
    cluster, _client = warm_cluster()
    primary = cluster.replica("R0")
    primary.view_changes.start(1)  # its own timer, say
    assert cluster.recover("R0")
    assert primary.counters.get("view_changes_started") == 1
    assert primary.counters.get("view_handoffs_sent") == 0


# -- what the follow rule refuses -----------------------------------------------------


@pytest.mark.parametrize(
    "sender, new_view, sign_as, counted",
    [
        ("R2", 1, None, None),  # the next view, but not from the primary
        ("R0", 2, None, None),  # from the primary, but not the next view
        ("R0", 0, None, None),  # a view we are already in
        ("R0", 1, "R3", "view_change_bad_sig"),  # not the primary's signature
    ],
    ids=["non-primary", "view+2", "stale-view", "bad-signature"],
)
def test_only_the_primarys_valid_vote_for_the_next_view_is_followed(
    sender, new_view, sign_as, counted
):
    cluster, _client = warm_cluster()
    target = cluster.replica("R1")
    vote = signed_view_change(cluster, sender, new_view, sign_as=sign_as)
    target.view_changes.on_view_change(vote, sender)
    assert not target.view_changes.in_view_change and target.view == 0
    assert target.counters.get("view_handoffs_followed") == 0
    assert target.counters.get("view_changes_started") == 0
    if counted:
        assert target.counters.get(counted) == 1


def test_a_hand_off_with_an_invalid_certificate_is_not_followed():
    cluster, _client = warm_cluster()
    target = cluster.replica("R1")
    vote = signed_view_change(cluster, "R0", 1)
    forged = ViewChange(
        new_view=1,
        stable_seqno=vote.stable_seqno,
        checkpoint_proof=vote.checkpoint_proof[:1],  # one vote is no certificate
        prepared=[],
        replica_id="R0",
    )
    forged.sig = cluster.sigs.keygen("R0").sign(forged.signable_bytes())
    target.view_changes.on_view_change(forged, "R0")
    assert target.counters.get("view_change_invalid") == 1
    assert not target.view_changes.in_view_change
    assert target.counters.get("view_handoffs_followed") == 0


def test_the_join_rule_still_needs_f_plus_one():
    cluster, _client = warm_cluster()
    target = cluster.replica("R2")
    target.view_changes.on_view_change(signed_view_change(cluster, "R1", 1), "R1")
    assert not target.view_changes.in_view_change
    target.view_changes.on_view_change(signed_view_change(cluster, "R3", 1), "R3")
    assert target.view_changes.in_view_change and target.view_changes.pending_view == 1
    assert target.counters.get("view_handoffs_followed") == 0


def test_replica_already_changing_view_is_not_restarted_by_a_hand_off():
    cluster, _client = warm_cluster()
    target = cluster.replica("R2")
    target.view_changes.start(2)
    target.view_changes.on_view_change(signed_view_change(cluster, "R0", 1), "R0")
    assert target.view_changes.pending_view == 2
    assert target.counters.get("view_handoffs_followed") == 0


# -- abuse, and the timer ---------------------------------------------------------------


def test_byzantine_primary_handing_off_to_one_backup_stops_nobody_else():
    """A faulty primary can use the rule to push one backup into a view
    change nobody else joins — what it could already do by starving that
    backup of pre-prepares until its timer fired.  The other three are a
    quorum and go on committing; no history diverges."""
    cluster, recorder = recording_cluster(config=BFTConfig(**SHAPE))
    client = cluster.client("C0")
    for i in range(10):
        assert client.invoke(encode_set(i % 8, bytes([i])), timeout=60) == b"OK"
    cluster.settle(0.1)
    lone = cluster.replica("R2")
    lone.on_message(signed_view_change(cluster, "R0", 1), "R0")
    assert lone.view_changes.in_view_change
    assert lone.counters.get("view_handoffs_followed") == 1
    started = cluster.sim.now()
    for i in range(10, 20):
        assert client.invoke(encode_set(i % 8, bytes([i])), timeout=60) == b"OK"
    assert cluster.sim.now() - started < 0.1  # nobody waited for a timer
    assert [cluster.replica(r).view for r in ("R0", "R1", "R3")] == [0, 0, 0]
    assert [cluster.replica(r).last_executed for r in ("R0", "R1", "R3")] == [20, 20, 20]
    assert total(cluster, "new_views_sent") == 0
    assert_prefix_consistent(cumulative_histories(recorder))
    assert_order_consistent(recorder)


def test_crashed_primary_is_still_replaced_by_the_timer():
    """No hand-off is possible from a primary that died; the backups' request
    timer blames it exactly as before (the instants are the ones pinned in
    test_parked_reads.py::test_silent_primary_is_still_blamed_at_the_same_instant)."""
    cluster, client = warm_cluster(writes=5)
    cluster.crash("R0")
    sent_at = cluster.sim.now()
    assert client.invoke(encode_set(1, b"w"), timeout=30) == b"OK"
    assert cluster.sim.now() - sent_at > cluster.config.view_change_timeout
    assert total(cluster, "request_timeouts") >= 3
    assert total(cluster, "view_handoffs_sent") == 0
    assert total(cluster, "view_handoffs_followed") == 0
    assert [cluster.replica(r).view for r in ("R1", "R2", "R3")] == [1, 1, 1]
    # The supervisor-less restart of the dead primary reboots it in place:
    # crashed, so it announces nothing and hands nothing over.
    assert cluster.recover("R0")
    cluster.settle(1.0)
    assert total(cluster, "view_handoffs_sent") == 0
    assert cluster.replica("R0").view == 1
