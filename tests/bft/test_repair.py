"""Fault-containment supervisor: reactive repair, crash-loop classification,
skip-past-poison state transfer, N-version failover, and the scrubber.

All scenarios run the recording KV cluster with the watchdog OFF
(``recovery_period=0``): every repair observed here was initiated by the
supervisor reacting to a crash, not by proactive rejuvenation.
"""

import pytest

from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.bft.messages import Checkpoint, CheckpointCert
from repro.bft.repair import RepairPolicy
from repro.bft.statetransfer import _RETRY
from repro.bft.testing import (
    HistoryRecorder,
    RecordingKV,
    encode_set,
    kv_cluster,
    recording_cluster,
)
from repro.faults import POISON
from repro.util.errors import FaultInjected

from tests.bft.history import assert_order_consistent


def poisoned_cluster(policy=None, **config_overrides):
    defaults = dict(checkpoint_interval=8, log_window=32)
    defaults.update(config_overrides)
    poisoned = set()
    policy = policy or RepairPolicy(
        backoff_initial=0.02, backoff_max=0.2, deterministic_after=2, failover_after=8
    )
    cluster, recorder = recording_cluster(
        config=BFTConfig(**defaults), repair=policy, poisoned=poisoned
    )
    return cluster, recorder, poisoned


def warm_up(cluster, requests=8):
    client = cluster.client("C0")
    for i in range(requests):
        client.invoke(encode_set(i % 8, bytes([i])))
    return client


def test_reactive_repair_without_watchdog():
    """A transient implementation crash is repaired by the supervisor alone:
    one crash, one reactive recovery, episode closed — and the poisoned
    request itself never failed at the client (the quorum masked it)."""
    cluster, recorder, poisoned = poisoned_cluster()
    warm_up(cluster)
    poisoned.add("R2")
    assert cluster.client("P0").invoke(encode_set(9, POISON)) == b"OK"
    poisoned.discard("R2")  # transient: the rebuilt instance is clean
    cluster.settle(2.0)
    host = cluster.host("R2")
    supervisor = host.supervisor
    assert len(supervisor.crashes) == 1
    assert supervisor.counters.get("supervisor_repairs_started") == 1
    assert len(host.recovery_log) == 1  # reactive — recovery_period is 0
    assert len(supervisor.mttr_log) == 1  # order-consistent again
    assert not cluster.network.is_down("R2")
    assert not supervisor.status()["episode_open"]
    assert_order_consistent(recorder)


def test_deterministic_bug_escalates_to_skip_past_poison():
    """A deterministic input-triggered bug crash-loops (suffix re-execution
    re-feeds the poison); the supervisor classifies it and the repair adopts
    the quorum's abstract state *past* the poisoning operation instead of
    re-executing it."""
    cluster, recorder, poisoned = poisoned_cluster()
    client = warm_up(cluster)
    poisoned.add("R2")
    assert cluster.client("P0").invoke(encode_set(9, POISON)) == b"OK"
    # Quiet period: the newest certificate predates the poison, so every
    # rebuild re-executes it and dies again until the skip engages.
    cluster.settle(1.0)
    supervisor = cluster.host("R2").supervisor
    assert len(supervisor.crashes) >= 2
    assert supervisor.counters.get("supervisor_deterministic_crashes") >= 1
    assert supervisor.status()["skip_min_seqno"] == 9
    # Resume traffic: the skip needs a certificate at or past the poison.
    for i in range(16):
        client.invoke(encode_set(i % 8, bytes([i, 7])))
    cluster.settle(3.0)
    assert supervisor.counters.get("supervisor_skip_transfers") >= 1
    assert len(supervisor.mttr_log) == 1
    assert not cluster.network.is_down("R2")
    # R2 holds the poison *value* (adopted via state transfer) but never
    # executed the poison operation in any incarnation.
    assert cluster.service("R2").cells[9] == POISON
    assert all(
        POISON not in op
        for segment in recorder.history_segments["R2"]
        for _client_id, op in segment
    )
    assert_order_consistent(recorder)


def test_n_version_failover_when_repairs_keep_failing():
    """When rebuilds keep dying (classification disabled here, so every
    repair re-executes the poison), the ladder's last rung swaps in the next
    implementation of the N-version factory list, which executes the poison
    without crashing."""
    policy = RepairPolicy(
        backoff_initial=0.02, backoff_max=0.1, deterministic_after=10, failover_after=2
    )
    cluster, recorder, poisoned = poisoned_cluster(policy=policy)
    warm_up(cluster)
    poisoned.add("R2")  # never healed: the primary implementation stays buggy
    assert cluster.client("P0").invoke(encode_set(9, POISON)) == b"OK"
    cluster.settle(3.0)
    host = cluster.host("R2")
    supervisor = host.supervisor
    assert len(supervisor.crashes) >= 3  # looped past failover_after
    assert host.factory_index == 1  # running the clean implementation now
    assert supervisor.counters.get("supervisor_failovers") == 1
    assert len(supervisor.mttr_log) == 1
    assert not cluster.network.is_down("R2")
    # The clean implementation re-executed the poison operation fine, over
    # the disk the buggy one left: an N-version list shares the replica's.
    assert cluster.service("R2").cells[9] == POISON
    assert cluster.service("R2").disk is cluster.disks["R2"]
    assert_order_consistent(recorder)


def test_scrubber_repairs_silent_corruption_without_reboot():
    """In-place value corruption (no ``modify`` upcall) keeps checkpoint
    digests stale-correct, so only the scrubber can see it — and it repairs
    the leaf through a targeted partial transfer, never rebooting."""
    policy = RepairPolicy(scrub_interval=0.05, scrub_batch=32)
    cluster, recorder, _poisoned = poisoned_cluster(policy=policy)
    warm_up(cluster)
    cluster.settle(0.5)  # checkpoint at 8 stabilizes; modified-flags clear
    service = cluster.service("R1")
    good = service.cells[3]
    assert good == bytes([3])
    service.cells[3] = good + b"\xff<bitrot>"
    recoveries_before = cluster.replica("R1").counters.get("recoveries_started")
    cluster.settle(1.0)
    replica = cluster.replica("R1")
    assert service.cells[3] == good
    assert cluster.host("R1").supervisor.counters.get("scrub_corruption_detected") >= 1
    assert replica.counters.get("scrub_repairs") >= 1
    assert replica.counters.get("recoveries_started") == recoveries_before
    assert_order_consistent(recorder)


def test_scrubber_recovers_a_replica_whose_checkpoint_diverged():
    """Tier one of the scrub: R1's own checkpoint digest at the stable seqno
    differs from the certificate's, so the partition tree itself diverged and
    only a full recovery helps.  ``scrub_once`` starts exactly one, through
    the cluster, and it completes."""
    cluster, recorder, _poisoned = poisoned_cluster(policy=RepairPolicy())
    warm_up(cluster)
    cluster.settle(0.5)  # checkpoint at 8 stabilizes
    host = cluster.host("R1")
    cert = host.replica.stable_cert
    assert cert.seqno == 8 and host.replica.own_checkpoints[8].state_digest == cert.state_digest
    host.replica.own_checkpoints[8] = Checkpoint(
        seqno=8, state_digest=b"\x00" * 32, replica_id="R1"
    )
    assert host.supervisor.scrub_once()
    assert cluster.network.is_down("R1")  # rebooting
    cluster.settle(2.0)
    assert host.supervisor.counters.get("scrub_full_recoveries") == 1
    assert host.replica.counters.get("recoveries_started") == 1
    assert host.replica.counters.get("recoveries_completed") == 1
    assert len(host.recovery_log) == 1 and not host.replica.recovering
    assert_order_consistent(recorder)


def test_crash_during_state_install_is_re_repaired():
    """An implementation that dies *inside* ``put_objs`` while recovery is
    installing fetched state crashes mid-repair; the supervisor observes that
    crash too and repairs again (here: the next rebuild installs fine)."""
    recorder = HistoryRecorder()
    fail_installs = {"R2": 1}

    class InstallCrashKV(RecordingKV):
        def __init__(self, rid, **kwargs):
            super().__init__(recorder, rid, **kwargs)
            self._rid = rid

        def put_objs(self, objects):
            if fail_installs.get(self._rid, 0) > 0:
                fail_installs[self._rid] -= 1
                raise FaultInjected("implementation bug: put_objs rejects checkpoint")
            super().put_objs(objects)

    def factory_for(replica_id):
        return lambda disk: InstallCrashKV(replica_id, num_slots=32, disk=disk)

    cluster = Cluster(
        factory_for,
        config=BFTConfig(checkpoint_interval=8, log_window=32),
        repair=RepairPolicy(backoff_initial=0.02, backoff_max=0.2),
    )
    client = warm_up(cluster)
    cluster.replica("R2").crash_self("aging: heap exhausted")
    for i in range(4):  # keep ordering alive so the episode can close
        client.invoke(encode_set(i % 8, bytes([i, 9])))
    cluster.settle(3.0)
    supervisor = cluster.host("R2").supervisor
    reasons = [record.reason for record in supervisor.crashes]
    assert "implementation bug: put_objs rejects checkpoint" in reasons
    assert len(supervisor.crashes) >= 2  # the install crash was observed
    assert supervisor.counters.get("supervisor_repairs_started") >= 2
    assert not cluster.network.is_down("R2")
    assert len(supervisor.mttr_log) == 1
    assert_order_consistent(recorder)


def test_repair_path_clears_stale_retry_counts():
    """Regression: the corrupt-state repair branch of
    ``_verify_current_and_finish`` must start with a clean retry slate —
    counts inherited from a previous session would abort the repair before
    its first fetch."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=32))
    client = cluster.client("C0")
    for i in range(8):
        client.invoke(encode_set(i % 8, bytes([i])))
    cluster.settle(0.5)
    replica = cluster.replica("R1")
    transfer = replica.transfer
    cert = CheckpointCert(seqno=replica.last_executed, state_digest=b"\x00" * 32)
    replica.recovering = True
    transfer._retries = {("obj", 1): transfer._max_retries + 1}
    transfer._verify_current_and_finish(cert)
    assert transfer.active  # the repair session started...
    assert transfer.session is cert
    assert transfer._retries == {}  # ...with no inherited retry counts


# -- the scrub session, driven directly -------------------------------------------------


def scrub_rig():
    """A four-replica KV cluster stable at seqno 8, with cell 3 of R1 rotted
    in place: what ``scrub_once`` would hand to ``begin_scrub``."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=8, log_window=32))
    client = cluster.client("C0")
    for i in range(8):
        client.invoke(encode_set(i % 8, bytes([i])))
    cluster.settle(0.5)
    replica = cluster.replica("R1")
    assert replica.stable_cert.seqno == 8
    replica.service.cells[3] = b"\xff<bitrot>"
    return cluster, replica, [r for r in cluster.replicas if r is not replica]


def answer_fetches_with(monkeypatch, donors, data):
    for donor in donors:
        monkeypatch.setattr(
            donor.service.manager, "get_object_at", lambda seqno, index, data=data: data
        )


def test_scrub_ignores_a_wrong_digest_and_asks_the_next_donor(monkeypatch):
    cluster, replica, donors = scrub_rig()
    answer_fetches_with(monkeypatch, donors, b"not what the tree says")
    assert replica.transfer.begin_scrub(replica.stable_cert, [3])
    cluster.settle(_RETRY / 2)
    first = [d.node_id for d in donors if d.counters.get("objects_served")]
    assert len(first) == 1
    assert replica.counters.get("object_reply_bad_digest") == 1
    assert replica.transfer.scrub_active
    assert replica.service.cells[3] == b"\xff<bitrot>"
    monkeypatch.undo()
    cluster.settle(_RETRY)
    served = [d.node_id for d in donors if d.counters.get("objects_served")]
    assert len(served) == 2 and first[0] in served  # a different donor this time
    assert replica.counters.get("fetch_object_retries") == 1
    assert replica.counters.get("scrub_repairs") == 1
    assert not replica.transfer.scrub_active
    assert replica.service.cells[3] == bytes([3])


def test_scrub_gives_up_without_re_anchoring_when_no_donor_can_serve():
    cluster, replica, donors = scrub_rig()
    for donor in donors:
        donor.service.manager.discard_checkpoints_below(replica.stable_cert.seqno + 1)
    transfer = replica.transfer
    roots_before = replica.counters.get("fetch_root_sent")
    assert transfer.begin_scrub(replica.stable_cert, [3])
    cluster.settle(_RETRY * (transfer._max_retries + 2))
    assert replica.counters.get("fetch_object_retries") == transfer._max_retries
    assert replica.counters.get("scrub_sessions_aborted") == 1
    assert replica.counters.get("fetch_root_sent") == roots_before
    assert replica.counters.get("state_transfer_aborts") == 0
    assert not transfer.scrub_active and not transfer.active
    assert not replica.recovering


def test_a_certificate_the_replica_is_behind_supersedes_a_scrub():
    cluster, replica, _donors = scrub_rig()
    cluster.network.set_down("R1", True)  # the scrub's fetches go nowhere
    assert replica.transfer.begin_scrub(replica.stable_cert, [3])
    client = cluster.client("C0")
    for i in range(8):
        client.invoke(encode_set(i % 8, bytes([i, 1])))
    cluster.settle(0.5)
    newer = cluster.replica("R0").stable_cert
    assert newer.seqno == 16 and replica.last_executed == 8
    assert replica.transfer.scrub_active
    replica.transfer.start(newer)
    assert replica.counters.get("scrub_sessions_aborted") == 1
    assert replica.counters.get("state_transfers_started") == 1
    assert not replica.transfer.scrub_active
    assert replica.transfer.active and replica.transfer.session is newer
    cluster.network.set_down("R1", False)
    cluster.settle(1.0)
    assert replica.last_executed == 16
    assert replica.service.cells[3] == bytes([3, 1])
    assert replica.counters.get("scrub_repairs") == 0


def test_a_leaf_rewritten_while_its_scrub_is_in_flight_keeps_the_new_value(monkeypatch):
    cluster, replica, donors = scrub_rig()
    answer_fetches_with(monkeypatch, donors, None)  # silent until the rewrite is certified
    assert replica.transfer.begin_scrub(replica.stable_cert, [3])
    client = cluster.client("C0")
    assert client.invoke(encode_set(3, b"rewritten")) == b"OK"
    for i in range(7):  # on to the checkpoint at 16, which re-digests the leaf
        client.invoke(encode_set(4, bytes([i])))
    assert cluster.sim.run_until_condition(lambda: 16 in replica.own_checkpoints, timeout=0.2)
    assert replica.transfer.scrub_active
    # The donors now answer with what checkpoint 8 certified for the leaf.
    answer_fetches_with(monkeypatch, donors, bytes([3]))
    cluster.settle(2 * _RETRY)
    assert replica.counters.get("objects_fetched") == 1
    assert not replica.transfer.scrub_active
    assert replica.counters.get("scrub_repairs") == 0  # fetched, verified, not installed
    assert replica.service.cells[3] == b"rewritten"


def test_a_leaf_rewritten_since_the_last_checkpoint_is_not_rolled_back_either(monkeypatch):
    """The same race one step earlier: the rewrite executed but no checkpoint
    has re-digested the leaf yet, so the tree still shows the lm and digest
    the scrub asked about.  Installing the certified old value would undo an
    executed operation on this replica alone."""
    cluster, replica, donors = scrub_rig()
    answer_fetches_with(monkeypatch, donors, None)  # silent until the write lands
    assert replica.transfer.begin_scrub(replica.stable_cert, [3])
    assert cluster.client("C0").invoke(encode_set(3, b"rewritten")) == b"OK"
    assert replica.service.cells[3] == b"rewritten"
    assert replica.transfer.scrub_active
    monkeypatch.undo()
    cluster.settle(2 * _RETRY)
    assert replica.counters.get("objects_fetched") == 1
    assert not replica.transfer.scrub_active
    assert replica.counters.get("scrub_repairs") == 0
    assert replica.service.cells[3] == b"rewritten"
