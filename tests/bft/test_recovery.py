"""Proactive recovery: reboots, key refresh, corrupt-state repair (E5/E10)."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.messages import ViewChange
from repro.bft.recovery import REBOOT_TIME
from repro.bft.replica import Replica
from repro.bft.testing import encode_get, encode_set
from repro.crypto.auth import KeyTable, MacVerificationError, mac

from tests.conftest import assert_converged, kv_cluster


def run_ops(cluster, client, count, width=8):
    for i in range(count):
        client.invoke(encode_set(i % width, bytes([i % 251])), timeout=60)


def test_manual_recovery_completes():
    cluster = kv_cluster()
    client = cluster.client("C0")
    run_ops(cluster, client, 20)
    host = cluster.hosts["R2"]
    assert cluster.recover("R2")
    cluster.settle(3.0)
    replica = host.replica
    assert not replica.recovering
    assert replica.counters.get("recoveries_completed") == 1
    assert len(host.recovery_log) == 1
    assert_converged(cluster)


def test_recovery_skipped_before_any_state():
    cluster = kv_cluster()
    assert not cluster.recover("R0")


def test_recovery_replaces_service_instance():
    cluster = kv_cluster()
    client = cluster.client("C0")
    run_ops(cluster, client, 20)
    old_service = cluster.hosts["R1"].service
    cluster.recover("R1")
    cluster.settle(3.0)
    rebuilt = cluster.hosts["R1"].service
    assert rebuilt is not old_service
    # A new instance over the same persistent state, not a copy of it.
    assert rebuilt.disk is old_service.disk is cluster.disks["R1"]


def test_recovery_refreshes_session_keys():
    cluster = kv_cluster()
    client = cluster.client("C0")
    run_ops(cluster, client, 20)
    epoch_before = cluster.keys.epoch_of("R1")
    cluster.recover("R1")
    cluster.settle(3.0)
    assert cluster.keys.epoch_of("R1") == epoch_before + 1


def test_recovery_repairs_corrupt_disk_state():
    """Concrete-state corruption (bit rot, bugs) is healed from the abstract
    state of the correct replicas — the paper's availability argument."""
    cluster = kv_cluster()
    client = cluster.client("C0")
    run_ops(cluster, client, 20)
    cluster.settle(1.0)
    # Corrupt R2's persistent state behind the service's back.
    cluster.disks["R2"][3] = b"CORRUPTED"
    host = cluster.hosts["R2"]
    cluster.recover("R2")
    cluster.settle(3.0)
    assert host.replica.counters.get("objects_fetched") >= 1
    run_ops(cluster, client, 4)
    cluster.settle(1.0)
    assert_converged(cluster)


def test_corruption_of_untouched_object_detected():
    cluster = kv_cluster(num_slots=32)
    client = cluster.client("C0")
    run_ops(cluster, client, 20, width=4)  # objects 4..31 never written
    cluster.settle(1.0)
    cluster.disks["R2"][20] = b"ROT"  # corrupt an object that was never written
    host = cluster.hosts["R2"]
    cluster.recover("R2")
    cluster.settle(3.0)
    assert host.replica.counters.get("objects_fetched") >= 1
    assert cluster.service("R2").cells[20] == b""


def run_staggered_rotation():
    cluster = kv_cluster(config=BFTConfig(recovery_period=2.0))
    cluster.start_proactive_recovery()
    client = cluster.client("C0")
    for i in range(150):
        client.invoke(encode_set(i % 8, bytes([i % 251])), timeout=120)
        cluster.sim.run_for(0.02)
    cluster.settle(4.0)
    return cluster, client


def test_staggered_schedule_under_load():
    cluster, client = run_staggered_rotation()
    completed = {
        rid: host.replica.counters.get("recoveries_completed")
        for rid, host in cluster.hosts.items()
    }
    assert all(count >= 1 for count in completed.values()), completed
    # No two recoveries overlap (staggering keeps < 1/3 recovering).
    intervals = sorted(
        interval for host in cluster.hosts.values() for interval in host.recovery_log
    )
    for (start_a, end_a), (start_b, _end_b) in zip(intervals, intervals[1:]):
        assert end_a <= start_b + 1e-9
    # Service stayed correct throughout.
    assert client.invoke(encode_get(0), timeout=60) is not None


def test_every_auth_failure_under_a_rotation_is_a_key_dropped_at_reboot(monkeypatch):
    """``auth_failed`` under a recovery rotation is a message MAC'd under the
    inbound key its receiver dropped at reboot (``keys.refresh`` in
    ``ReplicaHost._reboot``): sent before the reboot, delivered after it.
    The tag is genuine under the old key; only its epoch is stale."""
    failures = []
    check_auth = Replica.check_auth

    def recording_check_auth(self, message, expected_sender=None):
        before = self.counters.get("auth_failed")
        ok = check_auth(self, message, expected_sender)
        if self.counters.get("auth_failed") != before:
            try:
                self.keys.check_authenticator(message.auth, self.node_id, message.signable_bytes())
                reason = "verified on a second look"
            except MacVerificationError as error:
                reason = str(error)
            failures.append((self.node_id, message, self.keys.epoch_of(self.node_id), reason))
        return ok

    monkeypatch.setattr(Replica, "check_auth", recording_check_auth)
    cluster, _client = run_staggered_rotation()
    assert len(failures) == cluster.total_counters().get("auth_failed") > 0
    reference = KeyTable()
    for receiver, message, current, reason in failures:
        epoch, tag = message.auth.tags[receiver]
        assert reason == f"stale key epoch {epoch} for {receiver} (current {current})"
        assert epoch == current - 1
        key = reference.key(message.auth.sender, receiver, epoch)
        assert tag == mac(key, message.signable_bytes())


def test_recovery_durations_recorded():
    cluster = kv_cluster()
    client = cluster.client("C0")
    run_ops(cluster, client, 20)
    host = cluster.hosts["R3"]
    cluster.recover("R3")
    cluster.settle(3.0)
    durations = host.recovery_durations()
    assert len(durations) == 1
    assert durations[0] >= REBOOT_TIME


def test_primary_rebooted_in_place_proposes_past_what_it_replayed():
    """A primary that reboots and is still primary when it wakes (its
    hand-off was lost, or it had crashed and could send none) transfers to
    the last stable checkpoint and is replayed forward from there by
    catch-up.  Its next proposal must be numbered past what it replayed:
    proposing the checkpoint's successor again — a seqno every backup has
    executed — can never commit, and the backups used to sit out the 250 ms
    request timer and change view over it (272.8 vms for this SET)."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=16))
    client = cluster.client("C0")
    run_ops(cluster, client, 20)
    cluster.settle(1.0)

    def lose_the_hand_off(src, dst, message):
        return None if src == "R0" and isinstance(message, ViewChange) else message

    cluster.network.add_interceptor(lose_the_hand_off)
    assert cluster.recover("R0")
    cluster.settle(0.1)
    primary = cluster.replica("R0")
    assert not primary.recovering and primary.is_primary()
    assert primary.stable_seqno == 16 and primary.last_executed == 20
    assert primary.next_seqno >= primary.last_executed
    sent_at = cluster.sim.now()
    assert client.invoke(encode_set(1, b"after"), timeout=60) == b"OK"
    assert cluster.sim.now() - sent_at < 0.010
    assert [replica.view for replica in cluster.replicas] == [0, 0, 0, 0]
    totals = cluster.total_counters()
    assert totals.get("request_timeouts") == 0 and totals.get("new_views_sent") == 0
