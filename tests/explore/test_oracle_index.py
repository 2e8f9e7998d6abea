"""The incremental ``prefix`` / ``at-most-once`` oracles against their
reference walks: seeded random evidence streams, checked step by step.

Evidence is produced the way a run produces it — real :class:`RecordingKV`
services feeding one :class:`HistoryRecorder` — so the streams exercise the
recorder's evidence contract (append-only, sealed per incarnation, only the
tentative suffix truncated) together with the index that relies on it.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from repro.bft.testing import (
    HistoryRecorder,
    RecordingKV,
    encode_set,
    order_divergence,
)
from repro.explore.interpreter import DEPLOYMENTS, SINGLE
from repro.explore.oracles import (
    OracleSuite,
    OracleViolation,
    _OrderIndex,
    check_reply_segments,
)
from repro.net.simulator import Simulator

REPLICAS = ("R0", "R1", "R2", "R3")
BYZANTINE = "R3"
STEPS = 120


def _op(k):
    """The k-th operation of the canonical order: (client, reqid, op bytes),
    unique per k as the recording workloads keep them."""
    return f"C{k % 3}", k // 3 + 1, encode_set(k % 8, b"v%d" % k)


def _suite(recorder, byzantine=()):
    """An oracle suite over hand-fed evidence: no replicas, just a clock."""
    stub = SimpleNamespace(hosts={}, sim=Simulator())
    stub.clusters = [stub]
    return OracleSuite(stub, [recorder], DEPLOYMENTS[SINGLE].oracles, byzantine=byzantine)


class _Replica:
    """One replica slot executing the canonical order, possibly badly."""

    def __init__(self, recorder, rid):
        self.recorder, self.rid = recorder, rid
        self.kv = RecordingKV(recorder, rid, num_slots=8)
        self.cursor = 0  # next canonical op
        self.frames = []  # cursor at each open speculation frame
        self.executed = []  # ops of the live incarnation, for duplicates

    def execute(self, k, reply=True, record=True):
        client, reqid, op = _op(k)
        if record:
            self.kv.execute(op, client, b"")
            self.executed.append(k)
        if reply:
            self.kv.record_reply(client, reqid, b"OK")

    def act(self, rng, faulty):
        roll = rng.random()
        if roll < 0.40:  # run: ahead of some replicas, behind others
            for _ in range(rng.randint(1, 3)):
                self.execute(self.cursor)
                self.cursor += 1
        elif roll < 0.46:  # state transfer: a gap in the history
            self.cursor += rng.randint(1, 2)
        elif roll < 0.54:  # reboot, possibly inside an open frame
            self.kv = RecordingKV(self.recorder, self.rid, num_slots=8)
            self.cursor = max(0, self.cursor - rng.randint(0, 3))
            self.frames, self.executed = [], []
        elif roll < 0.66:
            self.kv.begin_speculation()
            self.frames.append(self.cursor)
        elif roll < 0.78:
            if self.frames:
                self.kv.commit_speculation()
                self.frames.pop(0)
        elif roll < 0.86:
            if self.frames:
                self.kv.rollback_speculation()
                self.cursor = self.frames[0]
                self.frames = []
        elif not faulty:
            return
        elif roll < 0.92:  # two operations in the wrong order
            self.execute(self.cursor + 1)
            self.execute(self.cursor)
            self.cursor += 2
        elif roll < 0.96:  # a duplicate inside one segment, history only
            if self.executed:
                self.execute(rng.choice(self.executed), reply=False)
        elif self.executed:  # a reply recorded twice
            self.execute(rng.choice(self.executed), record=False)


def _reference(recorder, byzantine):
    problem = order_divergence(
        recorder.committed_history_segments(), exclude=byzantine
    )
    if problem is not None:
        return "prefix", problem
    problem = check_reply_segments(recorder.committed_reply_logs(), exclude=byzantine)
    if problem is not None:
        return "at-most-once", problem
    return None


def _drive(seed):
    """Run one stream; returns (first offending step or None, oracle)."""
    rng = random.Random(seed)
    recorder = HistoryRecorder()
    replicas = [_Replica(recorder, rid) for rid in REPLICAS]
    byzantine = (BYZANTINE,) if seed % 2 else ()
    # Correct replicas misbehave in one stream out of three, and then rarely;
    # the Byzantine slot misbehaves in every stream.
    fault_rate = 0.15 if seed % 3 == 0 else 0.0
    suite = _suite(recorder, byzantine)
    for step in range(STEPS):
        for _ in range(rng.randint(1, 3)):
            replica = rng.choice(replicas)
            faulty = replica.rid == BYZANTINE or rng.random() < fault_rate
            replica.act(rng, faulty)
        expected = _reference(recorder, byzantine)
        try:
            suite.check_now()
        except OracleViolation as caught:
            assert expected is not None, (
                f"seed {seed} step {step}: index raised "
                f"{caught.violation.detail!r}, reference is clean"
            )
            assert (caught.violation.oracle, caught.violation.detail) == expected
            # Suspicion is sticky: the next check re-raises like a full walk.
            with pytest.raises(OracleViolation):
                suite.check_now()
            return step, caught.violation.oracle
        assert expected is None, (
            f"seed {seed} step {step}: reference reports {expected}, "
            f"index is silent"
        )
        # Two-sided: a false suspicion would be masked by the reference walk
        # it triggers, and silently bring the per-check cost back.
        group = suite.groups[0]
        assert not group.order.suspect and not group.replies.suspect
    suite.sweep()  # the epilogue's full walk agrees: nothing to find
    return None, None


def test_index_raises_exactly_when_the_reference_first_does():
    outcomes = [_drive(seed) for seed in range(90)]
    by_oracle = {}
    for step, oracle in outcomes:
        by_oracle.setdefault(oracle, []).append(step)
    # The streams must cover the cases, or the agreement above is vacuous.
    assert len(by_oracle.get(None, [])) >= 10, "too few clean streams"
    assert len(by_oracle.get("prefix", [])) >= 10
    assert len(by_oracle.get("at-most-once", [])) >= 5
    late = [s for o in ("prefix", "at-most-once") for s in by_oracle[o] if s >= 30]
    assert len(late) >= 5, "no violation found after a long clean prefix"


def test_index_agrees_with_the_reference_on_every_small_stream():
    """Exhaustive over two segments, three operations, six appends: every
    order of arrival, every duplicate, both label directions."""
    moves = [(rid, ("C0", op)) for rid in ("R0", "R1") for op in (b"x", b"y", b"z")]
    violating = 0
    for stream in itertools.product(moves, repeat=6):
        segments = {"R0": [[]], "R1": [[]]}
        index = _OrderIndex()
        for rid, entry in stream:
            segments[rid][0].append(entry)
            index.consume(rid, segments[rid], len(segments[rid][0]))
            expected = order_divergence(segments) is not None
            assert index.suspect == expected, stream
            if expected:
                violating += 1
                break
    assert violating > 1000


def test_duplicate_inside_a_segment_is_direction_sensitive_like_the_reference():
    """[x, y, x] against [x, y]: a violation only when the segment holding
    the duplicate is the later-labelled one (the one the reference walks)."""
    x, y = ("C0", b"x"), ("C0", b"y")
    for holder, other, expect in (("R0", "R1", False), ("R1", "R0", True)):
        recorder = HistoryRecorder()
        dup, _ = recorder.begin_incarnation(holder)
        plain, _ = recorder.begin_incarnation(other)
        suite = _suite(recorder)
        for entry in (x, y):
            dup.append(entry)
            plain.append(entry)
            suite.check_now()
        dup.append(x)
        assert (order_divergence(recorder.history_segments) is not None) == expect
        if expect:
            with pytest.raises(OracleViolation):
                suite.check_now()
        else:
            suite.check_now()


def test_watermark_advance_alone_exposes_a_tentative_reordering():
    """Nothing is appended between the two checks: committing the frame is
    what turns the swapped pair into evidence."""
    recorder = HistoryRecorder()
    good, bad = RecordingKV(recorder, "R0", num_slots=8), RecordingKV(
        recorder, "R1", num_slots=8
    )
    suite = _suite(recorder)
    for k in (0, 1):
        client, _reqid, op = _op(k)
        good.execute(op, client, b"")
    bad.begin_speculation()
    for k in (1, 0):
        client, _reqid, op = _op(k)
        bad.execute(op, client, b"")
    suite.check_now()
    bad.commit_speculation()
    with pytest.raises(OracleViolation) as exc:
        suite.check_now()
    assert exc.value.violation.oracle == "prefix"
