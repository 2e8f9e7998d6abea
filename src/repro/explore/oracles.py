"""Continuous safety oracles, checked *during* a simulated run.

``ORACLES`` declares each continuously checked oracle as one row, in check
order.  A row states one piece of the safety contract as an explicitly
checkable property over the live deployment — its replicas, plus the
execution evidence a :class:`~repro.bft.testing.HistoryRecorder` collects —
and either checks each group on its own or looks across the groups:

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
  replica's own checkpoint at that seqno carry the same digest;
* **cross-shard-atomicity** — every correct replica, of any shard, that
  records an outcome for a transaction records the *same* one; the evidence,
  the participants' decided-txn tombstones, is first-seen-wins, so even a
  flip later garbage-collected or rolled back is caught;
* **reconstruction** — every finished fused-backup rebuild restored the
  exact certified abstract state: a failed one (missing parity, a timeout, a
  root that does not match the latest checkpoint certificate) is a *safety*
  signal, since the tier must otherwise refuse to serve.
* **availability** — the soak probe meets its :class:`SoakSLO` outside the
  beyond-assumption windows (every window's availability, every clipped
  outage span): not safety, but what proactive recovery buys.

A deployment names the rows it runs (``DEPLOYMENTS`` in
:mod:`repro.explore.interpreter`), and one :class:`OracleSuite` runs them
over ``system.clusters`` — one group or several shards alike — as a
simulator step hook, so properties are checked as the run unfolds (catching
violations that later garbage collection, state transfer, or recovery would
paper over), and raises :class:`OracleViolation` at the first offense.
Byzantine replicas named by the fault plan are excluded — the guarantees
quantify over correct replicas.

One more oracle is judged per episode rather than continuously:
**overload-goodput**, bracketing an ``overload`` episode
(:meth:`OracleSuite.begin_overload` / :meth:`OracleSuite.end_overload`):
the cluster must keep committing while saturated, and during a *pure*
(fault-free) episode it must shed rather than collapse — requests are
dropped by admission control, yet not a single view change starts
(overload must never be misdiagnosed as a faulty primary).

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

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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


@dataclass(eq=False)
class GroupEvidence:
    """One group under the oracles: its cluster and recorder, the replicas
    excluded as Byzantine, the label its violations carry, and what the
    per-group rows have seen.  The maps are first-seen-wins; keeping them
    across checks is what defeats garbage collection: a committed batch is
    remembered here even after the log drops it."""

    cluster: Cluster
    recorder: Optional[HistoryRecorder]
    byzantine: FrozenSet[str]
    label: str
    committed: Dict[int, Tuple[bytes, str]] = field(default_factory=dict)
    checkpoints: Dict[int, Tuple[bytes, str]] = field(default_factory=dict)
    views: Dict[str, Tuple[object, int]] = field(default_factory=dict)
    order: _OrderIndex = field(default_factory=_OrderIndex)
    replies: _ReplyIndex = field(default_factory=_ReplyIndex)

    def correct_hosts(self):
        return [
            (rid, host)
            for rid, host in self.cluster.hosts.items()
            if rid not in self.byzantine
        ]

    def feed(
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


# -- the rows: each returns what is wrong, None while the property holds ---------


def _check_prefix(group: GroupEvidence) -> Optional[str]:
    # Committed view: entries past a replica's oldest open speculation
    # frame are tentative and may legitimately be rolled back and
    # re-executed in a different order after a view change — they are not
    # evidence of divergence until promoted.
    if group.feed(group.order, group.recorder.history_segments, 0):
        return _walk_prefix(group)
    return None


def _walk_prefix(group: GroupEvidence) -> Optional[str]:
    return order_divergence(
        group.recorder.committed_history_segments(), exclude=group.byzantine
    )


def _check_commit_agreement(group: GroupEvidence) -> Optional[str]:
    for rid, host in group.correct_hosts():
        for seqno, pre_prepare in host.replica.committed.items():
            digest = pre_prepare.batch_digest()
            seen = group.committed.get(seqno)
            if seen is None:
                group.committed[seqno] = (digest, rid)
            elif seen[0] != digest:
                return (
                    f"seqno {seqno}: {rid} committed batch "
                    f"{digest.hex()[:12]} but {seen[1]} committed "
                    f"{seen[0].hex()[:12]}"
                )
    return None


def _check_at_most_once(group: GroupEvidence) -> Optional[str]:
    if group.feed(group.replies, group.recorder.reply_logs, 1):
        return _walk_at_most_once(group)
    return None


def _walk_at_most_once(group: GroupEvidence) -> Optional[str]:
    return check_reply_segments(
        group.recorder.committed_reply_logs(), exclude=group.byzantine
    )


def _check_view_monotonicity(group: GroupEvidence) -> Optional[str]:
    for rid, host in group.correct_hosts():
        replica = host.replica
        seen = group.views.get(rid)
        if seen is None or seen[0] is not replica:
            # New incarnation (reboot swaps the replica object): restart
            # tracking; monotonicity is per incarnation.
            group.views[rid] = (replica, replica.view)
            continue
        if replica.view < seen[1]:
            return f"{rid} moved backwards from view {seen[1]} to {replica.view}"
        group.views[rid] = (replica, replica.view)
    return None


def _check_checkpoint_stability(group: GroupEvidence) -> Optional[str]:
    for rid, host in group.correct_hosts():
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
            seen = group.checkpoints.get(seqno)
            if seen is None:
                group.checkpoints[seqno] = (digest, source)
            elif seen[0] != digest:
                return (
                    f"seqno {seqno}: {source} has digest "
                    f"{digest.hex()[:12]} but {seen[1]} has "
                    f"{seen[0].hex()[:12]}"
                )
    return None


def _check_cross_shard_atomicity(suite: "OracleSuite"):
    for shard, group in enumerate(suite.groups):
        for rid, host in group.correct_hosts():
            decisions = host.service.participant.decisions
            for txid in sorted(decisions):
                committed = decisions[txid]
                source = f"shard{shard}/{rid}"
                seen = suite.decisions.get(txid)
                if seen is None:
                    suite.decisions[txid] = (committed, source)
                elif seen[0] != committed:
                    return (
                        f"txn {txid} {'committed' if committed else 'aborted'}"
                        f" at {source} but "
                        f"{'committed' if seen[0] else 'aborted'} at "
                        f"{seen[1]}"
                    ), group
    return None


@dataclass(frozen=True)
class SoakSLO:
    """The availability service-level objective the ``availability`` row
    judges a soak run by.

    window:             accounting window width, virtual seconds.
    availability_floor: minimum fraction of probe ops that must succeed in
                        every judged window.
    max_outage_span:    longest tolerated coalesced outage, virtual seconds.
    assumption_margin:  grace period appended to each beyond-assumption
                        window (post-restart state-transfer catch-up).
    """

    window: float = 300.0
    availability_floor: float = 0.99
    max_outage_span: float = 90.0
    assumption_margin: float = 30.0

    def __post_init__(self) -> None:  # out of range, a field turns the SLO off
        if not (self.window > 0 and 0 <= self.availability_floor <= 1
                and self.max_outage_span >= 0 and self.assumption_margin >= 0):
            raise ValueError("SLO needs window > 0, 0 <= availability_floor <= 1 and "
                             f"spans >= 0, not {self.to_dict()}")

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "SoakSLO":
        return cls(**{name: float(data[name]) for name in cls().to_dict()})


class AvailabilityWatch:
    """The ``availability`` row's evidence: a soak's
    :class:`~repro.faults.scenarios.AvailabilityProbe` and the SLO its windows
    and outage spans are judged by outside the ``excluded`` windows.  The
    probe is sequential: a window closes once a later one has a sample, a
    span once a probe op succeeds after it, and each is judged as it closes.
    The SLO is a verdict over the whole horizon, so the first failure is kept
    (``found``) and the end-of-run sweep, which closes the rest, raises it."""

    def __init__(self, probe, slo: SoakSLO, excluded: List[Tuple[float, float]]) -> None:
        self.probe = probe
        self.slo = slo
        self.excluded = excluded
        self.windows = 0  # buckets judged
        self.spans = 0  # outage spans judged
        self.worst_window = 1.0
        self.worst_span = 0.0
        self.found: Optional[str] = None

    def check(self, closing: bool = False) -> Optional[str]:
        """Judge what closed since the last check (``closing``: everything
        left); the first failure of the run, if any."""
        probe = self.probe
        closed = len(probe.buckets) if closing else len(probe.buckets) - 1
        for bucket in probe.buckets[self.windows:closed]:
            self._judge_window(probe.window_summary(*bucket))
        self.windows = max(self.windows, closed)
        spans = probe.outage_spans
        open_span = spans and not closing and not probe.results[-1].ok
        closed = len(spans) - 1 if open_span else len(spans)
        for span in spans[self.spans:closed]:
            self._judge_span(span)
        self.spans = closed
        return self.found

    def _judge_window(self, window) -> None:
        if any(window.start < end and window.end > start for start, end in self.excluded):
            return
        self.worst_window = min(self.worst_window, window.availability)
        if window.availability < self.slo.availability_floor:
            self.found = self.found or (
                f"window [{window.start:.0f}, {window.end:.0f}) availability "
                f"{window.availability:.4f} below floor {self.slo.availability_floor}"
            )

    def _judge_span(self, span: Tuple[float, float]) -> None:
        """Judge the span's pieces outside the excluded windows (which are
        time-ordered and disjoint); a piece of no length judges nothing."""
        start, end = span
        pieces = []
        for x_start, x_end in self.excluded:
            if x_start < end and x_end > start:
                pieces.append((start, x_start))
                start = x_end
        for start, end in pieces + [(start, end)]:
            self.worst_span = max(self.worst_span, end - start)
            if end - start > self.slo.max_outage_span:
                self.found = self.found or (
                    f"outage span [{start:.1f}, {end:.1f}] lasts {end - start:.1f}s, "
                    f"beyond the {self.slo.max_outage_span}s bound"
                )


def _check_availability(suite: "OracleSuite"):
    if suite.availability is not None:  # attached only by the soak workload
        suite.availability.check()
    return None  # a failure waits for the sweep (AvailabilityWatch)


def _close_availability(suite: "OracleSuite"):
    watch = suite.availability
    detail = watch.check(closing=True) if watch is not None else None
    return None if detail is None else (detail, suite.groups[0])


def _check_reconstruction(suite: "OracleSuite"):
    tier = suite.system.fusion  # attached only by a destruction plan
    if tier is None:
        return None
    for record in tier.reconstructions:
        key = (record.shard, record.started_at)
        if record.completed_at is None or record.ok or key in suite.rebuilds_flagged:
            continue
        suite.rebuilds_flagged.add(key)  # each episode is reported once
        return (
            f"fused-backup rebuild of shard{record.shard} failed: "
            f"{record.detail or 'no detail'}"
        ), suite.groups[record.shard % len(suite.groups)]
    return None


# -- the oracle table: the one place that knows a continuously checked oracle ----

EACH_GROUP, ACROSS_GROUPS = "each group", "across groups"


@dataclass(frozen=True)
class Oracle:
    """One continuously checked oracle.  An ``EACH_GROUP`` row's
    ``check(group)`` judges one :class:`GroupEvidence`, and the suite runs it
    on every group in turn; an ``ACROSS_GROUPS`` row's ``check(suite)`` looks
    at all of them at once and returns ``(detail, group)``, the group being
    the one its violation is charged to.  ``walk`` is what
    :meth:`OracleSuite.sweep` runs after the incremental checks, with the
    same argument and result: an ``EACH_GROUP`` row's reference, the
    full-history walk, or the ``availability`` row's closing judgement."""

    scope: str
    check: Callable
    walk: Optional[Callable] = None


#: The continuously checked oracles, in check order: the ``EACH_GROUP`` rows
#: group by group, then the ``ACROSS_GROUPS`` rows (docs/simulation.md has
#: the table).  A ``DEPLOYMENTS`` row names the ones it runs.
ORACLES: Dict[str, Oracle] = {
    "prefix": Oracle(EACH_GROUP, _check_prefix, _walk_prefix),
    "commit-agreement": Oracle(EACH_GROUP, _check_commit_agreement),
    "at-most-once": Oracle(EACH_GROUP, _check_at_most_once, _walk_at_most_once),
    "view-monotonicity": Oracle(EACH_GROUP, _check_view_monotonicity),
    "checkpoint-stability": Oracle(EACH_GROUP, _check_checkpoint_stability),
    "cross-shard-atomicity": Oracle(ACROSS_GROUPS, _check_cross_shard_atomicity),
    "reconstruction": Oracle(ACROSS_GROUPS, _check_reconstruction),
    "availability": Oracle(ACROSS_GROUPS, _check_availability, _close_availability),
}


class OracleSuite:
    """The named ``oracles`` (``ORACLES`` rows, run in the order given) over
    every group of ``system``: ``system.clusters``, with their history
    ``recorders`` in the same order.  Fault steps land on group 0, so only
    there are the plan's ``byzantine`` replicas excluded; a sharded
    deployment's violations name their shard."""

    def __init__(
        self,
        system,
        recorders: List[Optional[HistoryRecorder]],
        oracles: Iterable[str],
        byzantine: Iterable[str] = (),
        check_interval: int = 10,
    ) -> None:
        self.system = system
        self.sim = system.sim
        clusters = system.clusters
        self.groups: List[GroupEvidence] = [
            GroupEvidence(
                cluster,
                recorder,
                frozenset(byzantine if index == 0 else ()),
                f"shard{index}:" if len(clusters) > 1 else "",
            )
            for index, (cluster, recorder) in enumerate(zip(clusters, recorders))
        ]
        rows = [(name, ORACLES[name]) for name in oracles]
        self._each = [(name, row) for name, row in rows if row.scope == EACH_GROUP]
        self._across = [(name, row) for name, row in rows if row.scope == ACROSS_GROUPS]
        self.check_interval = max(1, check_interval)
        self.violations: List[Violation] = []
        # What the ACROSS_GROUPS rows have seen: first-seen transaction
        # outcomes, the failed rebuilds already reported, and the soak probe
        # (its workload attaches the watch).
        self.decisions: Dict[str, Tuple[bool, str]] = {}
        self.rebuilds_flagged: Set[Tuple[int, float]] = set()
        self.availability: Optional[AvailabilityWatch] = None
        self._events_since_check = 0
        self._uninstall: Optional[Callable[[], None]] = None

    # -- lifecycle ----------------------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Register as a simulator step hook; returns the removal callback."""
        self._uninstall = self.sim.add_step_hook(self._on_event)
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
        """Run every row; raises :class:`OracleViolation` on the first."""
        for group in self.groups:
            for name, row in self._each:
                self._judge(name, row.check(group), group)
        for name, row in self._across:
            found = row.check(self)
            if found is not None:
                self._judge(name, *found)

    def sweep(self) -> None:
        """The end-of-run check: every row once more, then the reference
        walks over all the evidence (which cross-checks the index) and the
        closing judgements."""
        self.check_now()
        for group in self.groups:
            for name, row in self._each:
                if row.walk is not None:
                    self._judge(name, row.walk(group), group)
        for name, row in self._across:
            found = row.walk(self) if row.walk is not None else None
            if found is not None:
                self._judge(name, *found)

    def _judge(
        self, oracle: str, detail: Optional[str], group: Optional[GroupEvidence] = None
    ) -> None:
        """Raise ``oracle``'s violation, charged to ``group`` (group 0 by
        default), unless ``detail`` is None."""
        if detail is None:
            return
        violation = Violation(
            oracle=oracle,
            detail=(group or self.groups[0]).label + detail,
            time=self.sim.now(),
            event_index=self.sim.events_processed,
        )
        self.violations.append(violation)
        raise OracleViolation(violation)

    # -- goodput under overload ----------------------------------------------------

    def _overload_totals(self) -> Dict[str, int]:
        executed = 0
        shed = 0
        view_changes = 0
        for _rid, host in self.groups[0].correct_hosts():
            replica = host.replica
            executed = max(executed, replica.last_executed)
            shed += replica.counters.get("requests_shed")
            view_changes += replica.counters.get("view_changes_started")
        return {
            "last_executed": executed,
            "requests_shed": shed,
            "view_changes_started": view_changes,
        }

    def begin_overload(self, strict: bool) -> Dict[str, int]:
        """Snapshot group 0's progress/shedding/view counters at episode
        start, for :meth:`end_overload` to judge the episode by.

        ``strict`` means the plan is pure overload (no faults anywhere): the
        episode must then also shed (otherwise it was not an overload at all)
        and must not start a single view change."""
        totals = self._overload_totals()
        totals["strict"] = strict
        return totals

    def end_overload(self, snapshot: Dict[str, int]) -> None:
        """Judge the episode ``snapshot`` began; raises on the first offense."""
        totals = self._overload_totals()
        committed = totals["last_executed"] - snapshot["last_executed"]
        shed = totals["requests_shed"] - snapshot["requests_shed"]
        view_changes = (
            totals["view_changes_started"] - snapshot["view_changes_started"]
        )
        if committed <= 0:
            self._judge(
                "overload-goodput",
                "cluster stopped committing under overload "
                "(shed {0}, view changes {1})".format(shed, view_changes),
            )
        if snapshot["strict"] and shed <= 0:
            self._judge(
                "overload-goodput",
                "offered load was fully absorbed: the episode never "
                "overloaded the cluster (calibration error)",
            )
        if snapshot["strict"] and view_changes > 0:
            self._judge(
                "overload-goodput",
                f"{view_changes} view change(s) started during a fault-free "
                f"overload episode — saturation was misdiagnosed as a "
                f"faulty primary",
            )
