"""Unit tests for each safety oracle, driven by hand-built evidence and by
small live clusters with targeted tampering."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.fusion import FusedBackupTier, ReconstructionRecord
from repro.bft.messages import Checkpoint
from repro.bft.sharding import sharded_recording_cluster
from repro.bft.testing import encode_set, recording_cluster
from repro.crypto.digest import digest
from repro.explore.interpreter import DEPLOYMENTS, SHARDED, SINGLE, Session
from repro.explore.oracles import (
    OracleSuite,
    OracleViolation,
    Violation,
    check_reply_segments,
)
from repro.explore.plan import FaultPlan


def _suite(seed=0, byzantine=(), check_interval=10):
    cluster, recorder = recording_cluster(
        config=BFTConfig(checkpoint_interval=8, log_window=16), seed=seed
    )
    suite = OracleSuite(
        cluster,
        [recorder],
        DEPLOYMENTS[SINGLE].oracles,
        byzantine=byzantine,
        check_interval=check_interval,
    )
    return cluster, recorder, suite


def _run_workload(cluster, n=12):
    client = cluster.client("C0")
    for i in range(n):
        client.invoke(encode_set(i % 8, bytes([i])), timeout=60)


# -- clean runs hold every oracle -----------------------------------------------


def test_clean_run_passes_all_oracles_continuously():
    cluster, _recorder, suite = _suite()
    suite.install()
    _run_workload(cluster, 20)
    cluster.settle(1.0)
    suite.check_now()
    assert suite.violations == []


def test_uninstall_stops_checking():
    cluster, recorder, suite = _suite()
    suite.install()
    suite.uninstall()
    _run_workload(cluster, 4)
    # Tamper after uninstall: poison a history segment; no hook should fire.
    recorder.history_segments["R0"][0].insert(0, ("C0", b"poison"))
    cluster.settle(0.2)
    assert suite.violations == []


# -- prefix (execution-order) ---------------------------------------------------


def test_prefix_oracle_fires_on_reordered_history():
    cluster, recorder, suite = _suite()
    _run_workload(cluster, 8)
    segment = recorder.history_segments["R1"][0]
    segment[0], segment[1] = segment[1], segment[0]
    with pytest.raises(OracleViolation) as exc:
        suite.check_now()
    assert exc.value.violation.oracle == "prefix"
    assert suite.violations and suite.violations[0].oracle == "prefix"


def test_prefix_oracle_excludes_byzantine_replicas():
    cluster, recorder, suite = _suite(byzantine=("R1",))
    _run_workload(cluster, 8)
    segment = recorder.history_segments["R1"][0]
    segment[0], segment[1] = segment[1], segment[0]
    suite.check_now()
    assert suite.violations == []


# -- at-most-once -----------------------------------------------------------------


def test_check_reply_segments_flags_duplicate_reqid_within_incarnation():
    logs = {"R0": [[("C0", 1), ("C0", 2), ("C0", 2)]]}
    problem = check_reply_segments(logs)
    assert problem is not None and "R0" in problem


def test_check_reply_segments_allows_replay_across_incarnations():
    logs = {"R0": [[("C0", 1), ("C0", 2)], [("C0", 2), ("C0", 3)]]}
    assert check_reply_segments(logs) is None


def test_check_reply_segments_respects_exclude():
    logs = {"R2": [[("C0", 5), ("C0", 5)]]}
    assert check_reply_segments(logs, exclude=("R2",)) is None
    assert check_reply_segments(logs) is not None


def test_at_most_once_oracle_fires_via_suite():
    cluster, recorder, suite = _suite()
    _run_workload(cluster, 6)
    recorder.reply_logs["R3"][0].append(recorder.reply_logs["R3"][0][0])
    with pytest.raises(OracleViolation) as exc:
        suite.check_now()
    assert exc.value.violation.oracle == "at-most-once"


# -- view monotonicity ------------------------------------------------------------


def test_view_monotonicity_fires_on_view_regression():
    cluster, _recorder, suite = _suite()
    _run_workload(cluster, 4)
    suite.check_now()  # records current views
    cluster.replica("R2").view = -1
    with pytest.raises(OracleViolation) as exc:
        suite.check_now()
    assert exc.value.violation.oracle == "view-monotonicity"


def test_view_monotonicity_resets_across_incarnations():
    cluster, _recorder, suite = _suite()
    _run_workload(cluster, 10)
    suite.check_now()
    # A reboot swaps the replica object; its (fresh) view 0 is not a
    # regression even if the old incarnation had advanced.
    assert cluster.recover("R1")
    cluster.settle(2.0)
    suite.check_now()
    assert suite.violations == []


# -- commit agreement ---------------------------------------------------------------


def test_commit_agreement_fires_on_conflicting_committed_batches():
    cluster, _recorder, suite = _suite()
    _run_workload(cluster, 6)
    suite.check_now()  # seed the evidence map from honest commits
    replica = cluster.replica("R1")
    seqno, pre_prepare = next(iter(sorted(replica.committed.items())))
    forged = pre_prepare.__class__(
        view=pre_prepare.view,
        seqno=pre_prepare.seqno,
        requests=pre_prepare.requests,
        nondet=pre_prepare.nondet + b"-forged",
        primary_id=pre_prepare.primary_id,
    )
    replica.committed[seqno] = forged
    with pytest.raises(OracleViolation) as exc:
        suite.check_now()
    assert exc.value.violation.oracle == "commit-agreement"
    assert f"seqno {seqno}" in exc.value.violation.detail


def test_commit_agreement_survives_log_garbage_collection():
    """First-seen evidence outlives the replica's own log window."""
    cluster, _recorder, suite = _suite()
    suite.install()
    _run_workload(cluster, 30)  # enough to checkpoint + truncate early slots
    cluster.settle(1.0)
    suite.check_now()
    assert suite.violations == []
    assert 1 in suite.groups[0].committed  # seqno 1 remembered even after GC


# -- checkpoint stability --------------------------------------------------------------


def test_checkpoint_stability_fires_on_conflicting_digest():
    cluster, _recorder, suite = _suite()
    _run_workload(cluster, 20)
    cluster.settle(1.0)
    suite.check_now()
    replica = cluster.replica("R2")
    assert replica.own_checkpoints, "workload must reach a checkpoint boundary"
    seqno = sorted(replica.own_checkpoints)[0]
    honest = replica.own_checkpoints[seqno]
    replica.own_checkpoints[seqno] = Checkpoint(
        seqno=seqno, state_digest=digest(b"tampered"), replica_id=honest.replica_id
    )
    with pytest.raises(OracleViolation) as exc:
        suite.check_now()
    assert exc.value.violation.oracle == "checkpoint-stability"


# -- reconstruction ---------------------------------------------------------------------


def test_reconstruction_oracle_reports_a_failed_rebuild_once():
    system, recorders = sharded_recording_cluster(
        2, config=BFTConfig(checkpoint_interval=8, log_window=16)
    )
    suite = OracleSuite(system, recorders, DEPLOYMENTS[SHARDED].oracles)
    tier = FusedBackupTier(system)
    tier.attach()
    system.settle(0.5)
    suite.check_now()  # the parity bootstrap alone is no violation
    tier.reconstructions.append(
        ReconstructionRecord(
            shard=1, started_at=0.2, completed_at=0.4, ok=False, detail="root mismatch"
        )
    )
    with pytest.raises(OracleViolation) as exc:
        suite.check_now()
    violation = exc.value.violation
    assert violation.oracle == "reconstruction"
    assert violation.detail == "shard1:fused-backup rebuild of shard1 failed: root mismatch"
    suite.check_now()  # the episode is not reported again
    assert suite.violations == [violation]


# -- plumbing ----------------------------------------------------------------------


def test_violation_dataclass_roundtrip():
    violation = Violation(oracle="prefix", detail="x", time=1.5, event_index=42)
    assert violation.to_dict() == {
        "oracle": "prefix",
        "detail": "x",
        "time": 1.5,
        "event_index": 42,
    }


def test_step_hook_checks_periodically():
    cluster, recorder, suite = _suite(check_interval=5)
    suite.install()
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"x"), timeout=60)
    client.invoke(encode_set(1, b"y"), timeout=60)
    # Poison evidence, then drive the simulator: the hook must catch it
    # without an explicit check_now().  The poison is *appended* — the hook
    # has consumed what is there, and consumed evidence is append-only.
    first, second = ("CX", b"first"), ("CX", b"second")
    recorder.history_segments["R0"][-1].extend([first, second])
    recorder.history_segments["R1"][-1].extend([second, first])
    with pytest.raises(OracleViolation):
        client.invoke(encode_set(2, b"z"), timeout=60)
    assert suite.violations and suite.violations[0].oracle == "prefix"


def test_rewrite_of_consumed_evidence_is_caught_by_the_epilogue_sweep():
    """Breaking the evidence contract (rewriting entries a check has already
    consumed) escapes the incremental index but not ``heal_and_sweep``, which
    walks the full evidence with the reference oracles."""
    cluster, recorder = recording_cluster(
        config=BFTConfig(checkpoint_interval=8, log_window=16), seed=0
    )
    session = Session(
        FaultPlan(seed=0, requests=2), cluster, [recorder], SINGLE, check_interval=5
    )
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"x"), timeout=60)
    client.invoke(encode_set(1, b"y"), timeout=60)
    session.suite.check_now()
    segment = recorder.history_segments["R0"][0]
    segment[0], segment[1] = segment[1], segment[0]
    client.invoke(encode_set(2, b"z"), timeout=60)  # hook checks: nothing new is wrong
    assert session.suite.violations == []
    with pytest.raises(OracleViolation) as exc:
        session.heal_and_sweep(settle=0.5)
    assert exc.value.violation.oracle == "prefix"
