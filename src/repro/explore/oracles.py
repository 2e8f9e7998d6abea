"""Continuous safety oracles, checked *during* a simulated run.

Each oracle states one piece of the SMR safety contract as an explicitly
checkable property over the live cluster plus the execution evidence a
:class:`~repro.bft.testing.HistoryRecorder` collects:

* **prefix** — any two correct incarnation histories executed their common
  operations in the same relative order (the safety invariant itself, in
  the form that tolerates checkpoint rollback after a reboot);
* **commit-agreement** — no two correct replicas ever commit different
  batches at the same sequence number;
* **at-most-once** — within one service incarnation, a client's recorded
  reply reqids are strictly increasing (no request executes twice);
* **view-monotonicity** — a replica's view number never decreases within
  one incarnation;
* **checkpoint-stability** — for each sequence number there is exactly one
  certifiable state digest: every stable certificate and every correct
  replica's own checkpoint at that seqno carry the same digest.
* **overload-goodput** — bracketing an ``overload`` episode
  (:meth:`OracleSuite.begin_overload` / :meth:`OracleSuite.end_overload`):
  the cluster must keep committing while saturated, and during a *pure*
  (fault-free) episode it must shed rather than collapse — requests are
  dropped by admission control, yet not a single view change starts
  (overload must never be misdiagnosed as a faulty primary).

The suite registers itself as a simulator step hook, so properties are
checked as the run unfolds (catching violations that later garbage
collection, state transfer, or recovery would paper over), and raises
:class:`OracleViolation` at the first offense.  Byzantine replicas named by
the fault plan are excluded — the guarantees quantify over correct replicas.

A check costs time proportional to the evidence recorded *since the previous
check*, never to the length of the run: ``prefix`` and ``at-most-once`` keep
an index over the committed evidence they have consumed (the recorder's
evidence contract — append-only, sealed per incarnation — is what makes that
sound).  The full walks, :func:`~repro.bft.testing.order_divergence` and
:func:`check_reply_segments`, remain the *reference*: tests compare the index
against them, they describe a violation once the index suspects one, and
:meth:`OracleSuite.sweep` runs them over all the evidence at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.bft.cluster import Cluster
from repro.bft.testing import HistoryRecorder, order_divergence


@dataclass(frozen=True)
class Violation:
    """One safety-oracle violation, with enough context to diff replays."""

    oracle: str
    detail: str
    time: float
    event_index: int

    def to_dict(self) -> Dict:
        return {
            "oracle": self.oracle,
            "detail": self.detail,
            "time": self.time,
            "event_index": self.event_index,
        }


class OracleViolation(Exception):
    """Raised mid-run at the first safety violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(f"[{violation.oracle}] {violation.detail}")
        self.violation = violation


def check_reply_segments(
    reply_logs: Dict[str, List[List[Tuple[str, int]]]],
    exclude: Iterable[str] = (),
) -> Optional[str]:
    """At-most-once: per incarnation, per client, reqids strictly increase."""
    excluded = frozenset(exclude)
    for replica_id in sorted(reply_logs):
        if replica_id in excluded:
            continue
        for incarnation, segment in enumerate(reply_logs[replica_id]):
            last: Dict[str, int] = {}
            for client_id, reqid in segment:
                if reqid <= last.get(client_id, 0):
                    return (
                        f"{replica_id} (incarnation {incarnation}) executed "
                        f"reqid {reqid} for {client_id} after reqid "
                        f"{last[client_id]}"
                    )
                last[client_id] = reqid
    return None


class _EvidenceIndex:
    """Consumes each replica's committed evidence exactly once.

    Sealed segments never grow, so per replica only the newest segment seen
    so far and any opened since can hold unconsumed entries.  ``suspect``
    turns (and stays) true when the consumed evidence holds a violation.
    """

    def __init__(self) -> None:
        self.suspect = False
        self._segments: Dict[str, list] = {}

    def consume(self, replica_id: str, segments: List[list], live_end: int) -> None:
        """Take in what is new in ``segments``; the last one is live and
        committed up to ``live_end``."""
        known = self._segments.setdefault(replica_id, [])
        for incarnation in range(max(len(known) - 1, 0), len(segments)):
            if incarnation == len(known):
                known.append(self._open(replica_id, incarnation))
            state = known[incarnation]
            entries = segments[incarnation]
            end = live_end if incarnation == len(segments) - 1 else len(entries)
            for pos in range(state.consumed, end):
                self._append(state, entries[pos], pos)
                state.consumed = pos + 1

    def _open(self, replica_id: str, incarnation: int):
        raise NotImplementedError

    def _append(self, state, entry, pos: int) -> None:
        raise NotImplementedError


class _HistorySegment:
    """The consumed part of one incarnation's history."""

    __slots__ = ("order", "consumed", "first", "last", "fronts")

    def __init__(self, order: Tuple[str, int]) -> None:
        self.order = order  # sorts like the reference's segment labels
        self.consumed = 0
        self.first: Dict[Tuple[str, bytes], int] = {}
        self.last: Dict[Tuple[str, bytes], int] = {}
        # Per earlier-ordered segment this one shares operations with: the
        # positions (there, here) of the last shared operation in this
        # segment's order.
        self.fronts: Dict["_HistorySegment", Tuple[int, int]] = {}


class _OrderIndex(_EvidenceIndex):
    """:func:`~repro.bft.testing.order_divergence`, one new entry at a time.

    The reference walks the later-labelled segment ``b`` of each pair against
    the first-position map of the earlier-labelled ``a`` and demands
    positions that never fall back.  While that holds, the last shared
    operation in ``b``'s order carries the largest position in both, so one
    pair of positions per segment pair decides any single append:

    * an entry appended to ``b`` that ``a`` holds must map at or after the
      last shared operation's position in ``a``;
    * an entry new to ``a`` takes ``a``'s largest position, so ``b`` must
      first hold it after its own last shared operation.
    """

    def __init__(self) -> None:
        super().__init__()
        self._holders: Dict[Tuple[str, bytes], List[_HistorySegment]] = {}

    def _open(self, replica_id: str, incarnation: int) -> _HistorySegment:
        return _HistorySegment((replica_id, incarnation))

    def _append(self, segment: _HistorySegment, entry, pos: int) -> None:
        holders = self._holders.setdefault(entry, [])
        repeated = entry in segment.first
        for other in holders:
            if other is segment:
                continue
            if other.order < segment.order:
                there = other.first[entry]
                front = segment.fronts.get(other)
                if front is not None and there < front[0]:
                    self.suspect = True
                segment.fronts[other] = (there, pos)
            elif not repeated:
                front = other.fronts.get(segment)
                if front is not None and other.first[entry] < front[1]:
                    self.suspect = True
                other.fronts[segment] = (pos, other.last[entry])
        if not repeated:
            segment.first[entry] = pos
            holders.append(segment)
        segment.last[entry] = pos


class _ReplySegment:
    """The consumed part of one incarnation's reply log."""

    __slots__ = ("consumed", "last_reqid")

    def __init__(self) -> None:
        self.consumed = 0
        self.last_reqid: Dict[str, int] = {}


class _ReplyIndex(_EvidenceIndex):
    """:func:`check_reply_segments`, one new reply at a time."""

    def _open(self, replica_id: str, incarnation: int) -> _ReplySegment:
        return _ReplySegment()

    def _append(self, segment: _ReplySegment, entry, pos: int) -> None:
        client_id, reqid = entry
        if reqid <= segment.last_reqid.get(client_id, 0):
            self.suspect = True
        segment.last_reqid[client_id] = reqid


class OracleSuite:
    """All safety oracles over one recording cluster."""

    def __init__(
        self,
        cluster: Cluster,
        recorder: HistoryRecorder,
        byzantine: Iterable[str] = (),
        check_interval: int = 10,
        label: str = "",
    ) -> None:
        self.cluster = cluster
        self.recorder = recorder
        self.byzantine: FrozenSet[str] = frozenset(byzantine)
        self.check_interval = max(1, check_interval)
        self.label = label
        self.violations: List[Violation] = []
        # First-seen-wins evidence maps; conflicts are violations.  Keeping
        # them across checks is what defeats garbage collection: a committed
        # batch is remembered here even after the log drops it.
        self._committed: Dict[int, Tuple[bytes, str]] = {}
        self._checkpoints: Dict[int, Tuple[bytes, str]] = {}
        self._views: Dict[str, Tuple[object, int]] = {}
        self._order = _OrderIndex()
        self._replies = _ReplyIndex()
        self._events_since_check = 0
        self._uninstall: Optional[Callable[[], None]] = None
        self._overload: Optional[Dict[str, object]] = None

    # -- lifecycle ----------------------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Register as a simulator step hook; returns the removal callback."""
        self._uninstall = self.cluster.sim.add_step_hook(self._on_event)
        return self._uninstall

    def uninstall(self) -> None:
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None

    def _on_event(self) -> None:
        self._events_since_check += 1
        if self._events_since_check >= self.check_interval:
            self._events_since_check = 0
            self.check_now()

    # -- the oracles ---------------------------------------------------------------

    def correct_hosts(self):
        return [
            (rid, host)
            for rid, host in self.cluster.hosts.items()
            if rid not in self.byzantine
        ]

    def check_now(self) -> None:
        """Run every oracle; raises :class:`OracleViolation` on the first."""
        self._check_prefix()
        self._check_commit_agreement()
        self._check_at_most_once()
        self._check_view_monotonicity()
        self._check_checkpoint_stability()

    def sweep(self) -> None:
        """The end-of-run check: every oracle once more, then the reference
        walks over all the evidence (which cross-checks the index)."""
        self.check_now()
        self.check_reference()

    def check_reference(self) -> None:
        """``prefix`` and ``at-most-once`` by their full-history walks."""
        self._walk_prefix()
        self._walk_at_most_once()

    def record_violation(self, oracle: str, detail: str) -> None:
        violation = Violation(
            oracle=oracle,
            detail=self.label + detail,
            time=self.cluster.sim.now(),
            event_index=self.cluster.sim.events_processed,
        )
        self.violations.append(violation)
        raise OracleViolation(violation)

    def _check_prefix(self) -> None:
        # Committed view: entries past a replica's oldest open speculation
        # frame are tentative and may legitimately be rolled back and
        # re-executed in a different order after a view change — they are not
        # evidence of divergence until promoted.
        if self._feed(self._order, self.recorder.history_segments, 0):
            self._walk_prefix()

    def _feed(
        self, index: _EvidenceIndex, logs: Dict[str, List[list]], which: int
    ) -> bool:
        """Hand ``index`` the correct replicas' new committed evidence from
        ``logs`` (histories: ``which`` 0, replies: 1); true once it suspects."""
        for rid, segments in logs.items():
            if rid not in self.byzantine:
                index.consume(
                    rid, segments, self.recorder.committed_lengths(rid)[which]
                )
        return index.suspect

    def _walk_prefix(self) -> None:
        problem = order_divergence(
            self.recorder.committed_history_segments(), exclude=self.byzantine
        )
        if problem is not None:
            self.record_violation("prefix", problem)

    def _check_commit_agreement(self) -> None:
        for rid, host in self.correct_hosts():
            for seqno, pre_prepare in host.replica.committed.items():
                digest = pre_prepare.batch_digest()
                seen = self._committed.get(seqno)
                if seen is None:
                    self._committed[seqno] = (digest, rid)
                elif seen[0] != digest:
                    self.record_violation(
                        "commit-agreement",
                        f"seqno {seqno}: {rid} committed batch "
                        f"{digest.hex()[:12]} but {seen[1]} committed "
                        f"{seen[0].hex()[:12]}",
                    )

    def _check_at_most_once(self) -> None:
        if self._feed(self._replies, self.recorder.reply_logs, 1):
            self._walk_at_most_once()

    def _walk_at_most_once(self) -> None:
        problem = check_reply_segments(
            self.recorder.committed_reply_logs(), exclude=self.byzantine
        )
        if problem is not None:
            self.record_violation("at-most-once", problem)

    def _check_view_monotonicity(self) -> None:
        for rid, host in self.correct_hosts():
            replica = host.replica
            seen = self._views.get(rid)
            if seen is None or seen[0] is not replica:
                # New incarnation (reboot swaps the replica object): restart
                # tracking; monotonicity is per incarnation.
                self._views[rid] = (replica, replica.view)
                continue
            if replica.view < seen[1]:
                self.record_violation(
                    "view-monotonicity",
                    f"{rid} moved backwards from view {seen[1]} to {replica.view}",
                )
            self._views[rid] = (replica, replica.view)

    # -- goodput under overload ----------------------------------------------------

    def _overload_totals(self) -> Dict[str, int]:
        executed = 0
        shed = 0
        view_changes = 0
        for _rid, host in self.correct_hosts():
            replica = host.replica
            executed = max(executed, replica.last_executed)
            shed += replica.counters.get("requests_shed")
            view_changes += replica.counters.get("view_changes_started")
        return {
            "last_executed": executed,
            "requests_shed": shed,
            "view_changes_started": view_changes,
        }

    def begin_overload(self, strict: bool) -> None:
        """Snapshot progress/shedding/view counters at episode start.

        ``strict`` means the plan is pure overload (no faults anywhere): the
        episode must then also shed (otherwise it was not an overload at all)
        and must not start a single view change."""
        if self._overload is not None:
            raise ValueError("overlapping overload episodes")
        totals = self._overload_totals()
        totals["strict"] = strict
        self._overload = totals

    def end_overload(self) -> None:
        """Judge the bracketed episode; raises on the first offense."""
        snapshot = self._overload
        if snapshot is None:
            raise ValueError("end_overload without begin_overload")
        self._overload = None
        totals = self._overload_totals()
        committed = totals["last_executed"] - snapshot["last_executed"]
        shed = totals["requests_shed"] - snapshot["requests_shed"]
        view_changes = (
            totals["view_changes_started"] - snapshot["view_changes_started"]
        )
        if committed <= 0:
            self.record_violation(
                "overload-goodput",
                "cluster stopped committing under overload "
                "(shed {0}, view changes {1})".format(shed, view_changes),
            )
        if snapshot["strict"] and shed <= 0:
            self.record_violation(
                "overload-goodput",
                "offered load was fully absorbed: the episode never "
                "overloaded the cluster (calibration error)",
            )
        if snapshot["strict"] and view_changes > 0:
            self.record_violation(
                "overload-goodput",
                f"{view_changes} view change(s) started during a fault-free "
                f"overload episode — saturation was misdiagnosed as a "
                f"faulty primary",
            )

    def _check_checkpoint_stability(self) -> None:
        for rid, host in self.correct_hosts():
            replica = host.replica
            sources: List[Tuple[int, bytes, str]] = [
                (seqno, checkpoint.state_digest, f"{rid} own checkpoint")
                for seqno, checkpoint in replica.own_checkpoints.items()
            ]
            if replica.stable_cert is not None:
                sources.append(
                    (
                        replica.stable_cert.seqno,
                        replica.stable_cert.state_digest,
                        f"{rid} stable certificate",
                    )
                )
            for seqno, digest, source in sources:
                seen = self._checkpoints.get(seqno)
                if seen is None:
                    self._checkpoints[seqno] = (digest, source)
                elif seen[0] != digest:
                    self.record_violation(
                        "checkpoint-stability",
                        f"seqno {seqno}: {source} has digest "
                        f"{digest.hex()[:12]} but {seen[1]} has "
                        f"{seen[0].hex()[:12]}",
                    )


class ShardedOracleSuite:
    """Safety oracles over a sharded deployment.

    The one-group properties (prefix, commit-agreement, at-most-once,
    view-monotonicity, checkpoint-stability) generalize to per-shard
    histories by construction: each shard is an independent ordering domain,
    so one labelled :class:`OracleSuite` runs against each group's recorder
    and its violations name the shard.  On top of those, one property no
    single group can state:

    * **cross-shard-atomicity** — every correct replica (of any shard) that
      records an outcome for a transaction records the *same* outcome: a
      txid committed on one shard and aborted on another is the canonical
      2PC atomicity violation.  Evidence is the participants' decided-txn
      tombstones, which live in the Merkle abstract state and are
      first-seen-wins here — a later flip (even one later garbage-collected
      or rolled back) is still caught.
    """

    def __init__(
        self,
        sharded,
        recorders: List[HistoryRecorder],
        byzantine: Iterable[str] = (),
        check_interval: int = 10,
    ) -> None:
        self.sharded = sharded
        # Fault steps target shard 0 (see explore/interpreter.py), so only its
        # suite excludes the plan's byzantine replicas.
        self.suites: List[OracleSuite] = [
            OracleSuite(
                cluster,
                recorder,
                byzantine=byzantine if shard == 0 else (),
                check_interval=check_interval,
                label=f"shard{shard}:",
            )
            for shard, (cluster, recorder) in enumerate(
                zip(sharded.clusters, recorders)
            )
        ]
        self.check_interval = max(1, check_interval)
        self._decisions: Dict[str, Tuple[bool, str]] = {}
        self._reconstructions_flagged: set = set()
        self._events_since_check = 0
        self._uninstall: Optional[Callable[[], None]] = None

    @property
    def violations(self) -> List[Violation]:
        merged: List[Violation] = []
        for suite in self.suites:
            merged.extend(suite.violations)
        return merged

    # -- lifecycle ----------------------------------------------------------------

    def install(self) -> Callable[[], None]:
        """One step hook drives the per-shard checks and the cross-shard one
        (the shards share a simulator)."""
        self._uninstall = self.sharded.sim.add_step_hook(self._on_event)
        return self._uninstall

    def uninstall(self) -> None:
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None

    def _on_event(self) -> None:
        self._events_since_check += 1
        if self._events_since_check >= self.check_interval:
            self._events_since_check = 0
            self.check_now()

    # -- the oracles ---------------------------------------------------------------

    def check_now(self) -> None:
        for suite in self.suites:
            suite.check_now()
        self._check_cross_shard_atomicity()
        self._check_reconstruction_integrity()

    def sweep(self) -> None:
        """The end-of-run check (see :meth:`OracleSuite.sweep`)."""
        self.check_now()
        for suite in self.suites:
            suite.check_reference()

    def _check_cross_shard_atomicity(self) -> None:
        for shard, suite in enumerate(self.suites):
            for rid, host in suite.correct_hosts():
                participant = getattr(host.service, "participant", None)
                if participant is None:
                    continue
                decisions = participant.decisions
                for txid in sorted(decisions):
                    committed = decisions[txid]
                    source = f"shard{shard}/{rid}"
                    seen = self._decisions.get(txid)
                    if seen is None:
                        self._decisions[txid] = (committed, source)
                    elif seen[0] != committed:
                        suite.record_violation(
                            "cross-shard-atomicity",
                            f"txn {txid} {'committed' if committed else 'aborted'}"
                            f" at {source} but "
                            f"{'committed' if seen[0] else 'aborted'} at "
                            f"{seen[1]}",
                        )

    def _check_reconstruction_integrity(self) -> None:
        """Every finished fused-backup reconstruction must have succeeded.

        A failed rebuild — missing parity coverage, a timeout, or (worst)
        a rebuilt Merkle root that does not match the group's latest
        checkpoint certificate — is a *safety* signal here, not mere
        unavailability: the tier either restores the exact certified
        abstract state or it must refuse to serve.  Each episode is
        reported at most once.
        """
        tier = getattr(self.sharded, "fusion", None)
        if tier is None:
            return
        for record in tier.reconstructions:
            if record.completed_at is None or record.ok:
                continue
            key = (record.shard, record.started_at)
            if key in self._reconstructions_flagged:
                continue
            self._reconstructions_flagged.add(key)
            suite = self.suites[record.shard % len(self.suites)]
            suite.record_violation(
                "reconstruction",
                f"fused-backup rebuild of shard{record.shard} failed: "
                f"{record.detail or 'no detail'}",
            )
