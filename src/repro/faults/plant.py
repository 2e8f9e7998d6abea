"""Plantable protocol regressions for validating the exploration engine.

Unlike the injectors in :mod:`repro.faults.injector` — which model *allowed*
Byzantine behaviour the protocol must mask — a planted bug weakens the
protocol implementation itself, the way a bad refactor would.  Exploration
(``repro explore --plant NAME``) must then find a fault schedule that turns
the weakness into an oracle violation — a safety oracle, or the
overload-goodput check for ``undamped-timers`` — and the shrinker must
reduce that schedule to a minimal repro.

Each plant takes a :class:`~repro.bft.cluster.Cluster` and returns an
``ensure()`` callback that (re)applies the sabotage idempotently; the
exploration runner calls it as a simulator hook so the bug survives the
replica-object swaps done by proactive recovery and crash reboots.
"""

from __future__ import annotations

from typing import Callable, Dict

_PLANT_MARK = "_repro_planted"


def plant_weak_prepare_quorum(cluster) -> Callable[[], None]:
    """Regression: prepared/committed certificates accept f votes where the
    protocol requires 2f (and f+1 commits where it requires 2f+1).

    Harmless on clean schedules — honest replicas still agree — but a single
    equivocating primary can now drive disjoint halves of the cluster to
    commit *different* batches at the same sequence number, which the
    commit-agreement oracle flags.
    """

    def sabotage(replica) -> None:
        log = replica.log
        config = log.config

        def weak_prepared(slot, replica_id: str) -> bool:
            if slot.pre_prepare is None:
                return False
            votes = {
                p.replica_id
                for p in slot.matching_prepares()
                if p.replica_id != slot.pre_prepare.primary_id
            }
            return len(votes) >= config.f  # BUG: should be 2f

        def weak_committed_local(slot, replica_id: str) -> bool:
            if not weak_prepared(slot, replica_id):
                return False
            votes = {c.replica_id for c in slot.matching_commits()}
            return len(votes) >= config.f + 1  # BUG: should be 2f+1

        log.prepared = weak_prepared  # type: ignore[method-assign]
        log.committed_local = weak_committed_local  # type: ignore[method-assign]

    return _make_ensure(cluster, sabotage)


def plant_blind_checkpoint_certs(cluster) -> Callable[[], None]:
    """Regression: checkpoint certificates are trusted without verifying
    their proof quorum.

    A Byzantine replica that fabricates a certificate with a garbage state
    digest (the ``fabricate_cert`` fault step) can now convince a correct
    replica to mark bogus state stable — the checkpoint-stability oracle
    flags the digest conflict as soon as any correct replica checkpoints the
    real state at that sequence number.
    """

    def sabotage(replica) -> None:
        replica._verify_checkpoint_cert = lambda cert: True  # type: ignore[method-assign]

    return _make_ensure(cluster, sabotage)


def plant_undamped_timers(cluster) -> Callable[[], None]:
    """Regression in the overload policy: an expired request timer always
    blames the primary, even while commits keep landing — the anti-storm
    damping of ``OverloadPolicy._should_damp`` is gone.

    Harmless while the cluster is idle or a primary is really silent; under
    a pure ``overload`` episode a saturated but live primary is voted out,
    view change after view change, and the overload-goodput check flags the
    collapse.
    """

    def sabotage(replica) -> None:
        replica.overload._should_damp = lambda: False  # type: ignore[method-assign]

    return _make_ensure(cluster, sabotage)


def _make_ensure(cluster, sabotage: Callable) -> Callable[[], None]:
    def ensure() -> None:
        for host in cluster.hosts.values():
            replica = host.replica
            if not getattr(replica, _PLANT_MARK, False):
                sabotage(replica)
                setattr(replica, _PLANT_MARK, True)

    ensure()
    return ensure


PLANTED_BUGS: Dict[str, Callable] = {
    "weak-prepare-quorum": plant_weak_prepare_quorum,
    "blind-checkpoint-certs": plant_blind_checkpoint_certs,
    "undamped-timers": plant_undamped_timers,
}


def plant_hasty_read_client(cluster) -> Callable[[], None]:
    """Regression in the client: the first reply to a read-only request is
    believed, where the read-only optimisation needs 2f+1 matching ones.

    Harmless while every replica is correct and current; with one replica
    reporting corrupted results (``make_result_corruptor``) a client that
    hears it first returns a value nobody ever wrote.
    """

    def ensure() -> None:
        for client in cluster._clients.values():
            if getattr(client, _PLANT_MARK, False):
                continue
            original = client.on_message

            def hasty(message, src, client=client, original=original):
                invocation = client._current
                if (
                    getattr(message, "read_only", False)
                    and invocation is not None
                    and invocation.read_only
                    and message.reqid == invocation.request.reqid
                ):
                    client._current = None  # BUG: one reply is not a quorum
                    client._disarm_retry()
                    invocation.callback(message.result)
                    return
                original(message, src)

            client.on_message = hasty  # type: ignore[method-assign]
            setattr(client, _PLANT_MARK, True)

    ensure()
    return ensure


def plant_reads_ignore_open_frames(cluster) -> Callable[[], None]:
    """Regression in the fast path: ``admit_read`` no longer looks at the
    open speculation frames, so a read-only request is answered from
    tentative state — a write that only ever prepared and may yet be rolled
    back.  Invisible to a client while nothing is rolled back (the value is
    usually about to commit); visible at the replica, whose read-only reply
    then differs from what its committed history produces.  Masked while
    ``read_leases`` is on: accepting the write proposal drops the lease
    before the frame opens, and the next lease's floor is that write.
    """

    def sabotage(replica) -> None:
        fast_path = replica.fast_path
        original = fast_path.admit_read

        def blind_admit_read() -> bool:
            frames, fast_path.spec_frames = fast_path.spec_frames, []  # BUG
            try:
                return original()
            finally:
                fast_path.spec_frames = frames

        fast_path.admit_read = blind_admit_read  # type: ignore[method-assign]

    return _make_ensure(cluster, sabotage)


def plant_reads_ignore_view_floor(cluster) -> Callable[[], None]:
    """Regression in the fast path: a replica adopting a new view sets no
    read floor, so it answers read-only requests before the NEW-VIEW's O has
    re-executed.  A write a client accepted at 2f+1 tentative replies is in O
    but, its frame rolled back at the view boundary, not yet in committed
    state: for that window 2f+1 replicas agree on a value older than an
    acknowledged write.  Needs a view change faster than the old view's
    commits — a primary's hand-off before a planned reboot, not a crash (by
    the time a request timer fires the commits have landed).  Invisible to
    the replica-level check: the reply *is* the replica's committed state.
    """

    def sabotage(replica) -> None:
        fast_path = replica.fast_path
        original = fast_path.end_view

        def floorless_end_view(reproposed: int) -> None:
            original(0)  # BUG: O's re-execution is not waited for

        fast_path.end_view = floorless_end_view  # type: ignore[method-assign]

    return _make_ensure(cluster, sabotage)


#: Plants only a workload that *reads* can find.  ``repro explore`` issues no
#: GET yet (ROADMAP item 1), so they are not in :data:`PLANTED_BUGS`;
#: ``tests/bft/test_read_freshness.py`` is the harness that turns them red.
READ_PLANTED_BUGS: Dict[str, Callable] = {
    "hasty-read-client": plant_hasty_read_client,
    "reads-ignore-open-frames": plant_reads_ignore_open_frames,
    "reads-ignore-view-floor": plant_reads_ignore_view_floor,
}


def plant_split_brain_decide(sharded) -> Callable[[], None]:
    """Regression in the 2PC participant: every shard except shard 0 records
    a commit decision as an abort (and skips applying the writes) — the way
    a botched refactor of the decide path would, if it inverted the vote
    check on just one code path.

    Harmless while transactions stay single-shard, and invisible to every
    per-shard oracle (each group is internally consistent).  The first
    *cross-shard* transaction that commits is recorded committed on shard 0
    and aborted elsewhere — exactly what the cross-shard atomicity oracle
    exists to catch.
    """

    def ensure() -> None:
        from repro.bft.messages import TxnDecide

        for cluster in sharded.clusters[1:]:
            for host in cluster.hosts.values():
                participant = getattr(host.service, "participant", None)
                if participant is None or getattr(participant, _PLANT_MARK, False):
                    continue
                original = participant.apply_decide

                def lying_decide(message, original=original):
                    if message.commit:
                        message = TxnDecide(txid=message.txid, commit=False)
                    return original(message)

                participant.apply_decide = lying_decide  # type: ignore[method-assign]
                setattr(participant, _PLANT_MARK, True)

    ensure()
    return ensure


def plant_forged_decide(sharded) -> Callable[[], None]:
    """A compromised 2PC coordinator: every commit decide it sends carries an
    *empty* vote certificate — the forgery a Byzantine client (or a
    coordinator bug that skips vote collection) would produce.

    Against an unhardened participant this commits writes no shard actually
    voted for.  Against the hardened decide path the forgery is refused
    (``TXN_BAD_CERT``, counted in ``txn_decides_rejected``), no write
    applies, and the cross-shard atomicity oracle stays quiet — which is
    exactly what the pin test asserts.
    """

    def ensure() -> None:
        for client in sharded._clients.values():
            if getattr(client, _PLANT_MARK, False):
                continue
            original = client.invoke_txn_async

            def forging_invoke(writes, callback, client=client, original=original):
                txid = original(writes, callback)
                coordinator = client._coordinator
                if coordinator is not None:
                    coordinator.vote_certificate = lambda: []  # type: ignore[method-assign]
                return txid

            client.invoke_txn_async = forging_invoke  # type: ignore[method-assign]
            setattr(client, _PLANT_MARK, True)

    ensure()
    return ensure


#: Plants that sabotage a sharded deployment (``repro explore --shards N
#: --plant NAME``); they take a :class:`~repro.bft.sharding.ShardedCluster`.
SHARDED_PLANTED_BUGS: Dict[str, Callable] = {
    "split-brain-decide": plant_split_brain_decide,
    "forged-decide": plant_forged_decide,
}

