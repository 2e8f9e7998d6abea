"""A small deterministic key-value state machine for exercising the BFT
engine without the full BASE/NFS stack, plus :func:`kv_group`, the one
builder of a group of them (``kv_cluster`` for tests and benchmarks).

The abstract state is an array of ``num_slots`` byte-string cells.  Operations
(XDR-encoded): SET i value / GET i / APPEND i value.  The cells write through
to a ``disk`` dict so a service rebuilt by proactive recovery sees persistent
state; tests inject corruption by mutating the disk or the in-memory cells
directly.

This module also hosts the *history-recording* harness shared by the safety
tests and ``repro.explore``: :class:`HistoryRecorder` collects every
replica's execution history and reply log (both segmented per service
incarnation), :class:`RecordingKV` is the KV service instrumented to feed
it, and :func:`recording_cluster` wires a group of recording replicas.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.base.statemgr import AbstractStateManager, genesis_root_digest
from repro.bft.service import StateMachine
from repro.bft.txn import TxnParticipant, decode_txn_op
from repro.faults.buggy import POISON
from repro.util.errors import FaultInjected
from repro.util.xdr import OPAQUE, U32, UnknownOp, declare_op, decode_op

#: Command -> the op's record class, its arguments as fields in wire order.
KV_OPS: Dict[str, type] = {}
encode_set = declare_op(KV_OPS, "SET", index=U32, value=OPAQUE)
encode_get = declare_op(KV_OPS, "GET", index=U32)
encode_append = declare_op(KV_OPS, "APPEND", index=U32, value=OPAQUE)


class KVStateMachine(StateMachine):
    """Array-of-cells service with write-through persistence."""

    def __init__(
        self,
        num_slots: int = 64,
        disk: Optional[Dict[int, bytes]] = None,
        arity: int = 4,
        transactional: bool = False,
        weak_quorum: int = 2,
    ) -> None:
        self.num_slots = num_slots
        self.disk = disk if disk is not None else {}
        self.cells: List[bytes] = [self.disk.get(i, b"") for i in range(num_slots)]
        self.arity = arity
        super().__init__(AbstractStateManager(num_slots, self.get_obj, arity=arity))
        self.executed_ops = 0
        # Transactional mode reserves the last cell for the 2PC participant
        # table; data ops then address only [0, num_slots - 1).  Built last:
        # the participant reloads its mirrors from the cells above.
        self.participant: Optional[TxnParticipant] = (
            TxnParticipant(self, num_slots - 1, weak_quorum=weak_quorum)
            if transactional
            else None
        )

    def data_slots(self) -> int:
        """Cells addressable by plain SET/GET/APPEND ops."""
        return self.num_slots - 1 if self.participant is not None else self.num_slots

    def get_obj(self, index: int) -> bytes:
        return self.cells[index]

    def put_objs(self, objects: Dict[int, bytes]) -> None:
        for index, value in objects.items():
            self.cells[index] = value
            self.disk[index] = value
        if self.participant is not None:
            self.participant.reload()

    # -- execution ---------------------------------------------------------------

    def execute(self, op: bytes, client_id: str, nondet: bytes, read_only: bool = False) -> bytes:
        if self.participant is not None:
            txn_message = decode_txn_op(op)
            if txn_message is not None:
                if read_only:
                    return b"ERR mutation in read-only request"
                result = self.participant.execute(txn_message, client_id)
                self.executed_ops += 1
                return result
        # Clients are authenticated, not trusted: an op that does not decode,
        # completely, gets an error reply (the same one at every replica) and
        # touches no abstract object.  ValueError covers XdrError and bad UTF-8.
        try:
            command, args = decode_op(KV_OPS, op)
        except UnknownOp:
            return b"ERR unknown command"
        except ValueError:
            return b"ERR malformed"
        index = args.index
        if index >= self.data_slots():
            return b"ERR index"
        if command == "GET":
            return self.cells[index]
        if read_only:
            return b"ERR mutation in read-only request"
        if self.participant is not None and self.participant.locked(index):
            return b"ERR locked"
        self.manager.modify(index)
        self.cells[index] = args.value if command == "SET" else self.cells[index] + args.value
        self.disk[index] = self.cells[index]
        self.executed_ops += 1
        return b"OK"

    def genesis_root_digest(self) -> bytes:
        return genesis_root_digest(
            self.num_slots,
            lambda index: b"",
            arity=self.arity,
            client_shards=self.manager.client_shards,
        )


class HistoryRecorder:
    """Execution evidence for one cluster, fed by :class:`RecordingKV`.

    Both records are *segmented per service incarnation* — a proactive
    recovery or crash reboot opens a fresh segment, because a rebooted
    replica legitimately rolls back to the stable checkpoint and re-executes
    the suffix, which must not read as a double execution.

    ``history_segments[rid]`` holds ordered lists of ``(client_id, op)``
    mutations, one list per incarnation.  ``reply_logs[rid]`` holds ordered
    lists of ``(client_id, reqid)`` recorded replies — the at-most-once
    evidence: a reqid recorded twice for a client within one incarnation
    means a request executed twice.

    The evidence contract (the incremental oracles in ``repro.explore``
    consume each committed entry exactly once and rely on it): committed
    evidence is append-only; a segment is sealed — never written again —
    once its replica opens the next incarnation; and only the suffix of a
    live segment above the speculation watermark may ever be truncated.
    """

    def __init__(self) -> None:
        self.history_segments: Dict[str, List[List[Tuple[str, bytes]]]] = {}
        self.reply_logs: Dict[str, List[List[Tuple[str, int]]]] = {}
        # Per-replica committed watermark into the *live* (last) segment while
        # speculation frames are open: entries past it are tentative and are
        # excluded from the committed views the oracles check.
        self._spec_base: Dict[str, Tuple[int, int]] = {}

    def begin_incarnation(
        self, replica_id: str
    ) -> Tuple[List[Tuple[str, bytes]], List[Tuple[str, int]]]:
        """Open fresh history/reply segments for a (re)built service."""
        # A service that died mid-speculation never rolled its frames back:
        # seal its segments at the committed watermark, so its tentative
        # suffix never turns into committed evidence, then drop the watermark
        # (it addressed the old segment and must not truncate the new one).
        base = self._spec_base.pop(replica_id, None)
        if base is not None:
            del self.history_segments[replica_id][-1][base[0]:]
            del self.reply_logs[replica_id][-1][base[1]:]
        history: List[Tuple[str, bytes]] = []
        replies: List[Tuple[str, int]] = []
        self.history_segments.setdefault(replica_id, []).append(history)
        self.reply_logs.setdefault(replica_id, []).append(replies)
        return history, replies

    def set_speculative_base(
        self, replica_id: str, history_len: int, reply_len: int
    ) -> None:
        """Mark where committed evidence ends in the live segment (everything
        past the mark belongs to an open speculation frame)."""
        self._spec_base[replica_id] = (history_len, reply_len)

    def clear_speculative_base(self, replica_id: str) -> None:
        self._spec_base.pop(replica_id, None)

    def committed_lengths(self, replica_id: str) -> Tuple[int, int]:
        """How many entries of the replica's live history and reply segments
        are committed (the rest belongs to an open speculation frame)."""
        history = len(self.history_segments[replica_id][-1])
        replies = len(self.reply_logs[replica_id][-1])
        base = self._spec_base.get(replica_id)
        if base is None:
            return history, replies
        return min(base[0], history), min(base[1], replies)

    def committed_history_segments(
        self,
    ) -> Dict[str, List[List[Tuple[str, bytes]]]]:
        """History segments with tentative (not yet committed) entries cut
        from each live segment — the view the order oracles must check, since
        a speculated batch may legitimately be rolled back and re-executed
        differently after a view change."""
        return {
            rid: self._truncated(segments, self.committed_lengths(rid)[0])
            for rid, segments in self.history_segments.items()
        }

    def committed_reply_logs(self) -> Dict[str, List[List[Tuple[str, int]]]]:
        """Reply logs with tentative entries cut from each live segment."""
        return {
            rid: self._truncated(segments, self.committed_lengths(rid)[1])
            for rid, segments in self.reply_logs.items()
        }

    @staticmethod
    def _truncated(segments: List[list], committed: int) -> List[list]:
        if len(segments[-1]) <= committed:
            return segments
        return segments[:-1] + [segments[-1][:committed]]


class RecordingKV(KVStateMachine):
    """KV service that reports executions and replies to a recorder.

    Speculation-aware: tentative executions are recorded like any others (so
    divergence between speculating replicas is still caught), but the
    recorder's committed watermark tracks the oldest open frame, and a
    rollback truncates the tentative suffix — rolled-back work must not read
    as a prefix or at-most-once violation.
    """

    def __init__(self, recorder: HistoryRecorder, replica_id: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self._recorder = recorder
        self._recorder_id = replica_id
        self._history, self._replies = recorder.begin_incarnation(replica_id)
        self._spec_marks: List[Tuple[int, int]] = []

    def execute(self, op: bytes, client_id: str, nondet: bytes, read_only: bool = False) -> bytes:
        if not read_only:
            self._history.append((client_id, bytes(op)))
        return super().execute(op, client_id, nondet, read_only=read_only)

    def record_reply(self, client_id: str, reqid: int, reply: bytes) -> None:
        self._replies.append((client_id, reqid))
        super().record_reply(client_id, reqid, reply)

    def begin_speculation(self) -> None:
        self._spec_marks.append((len(self._history), len(self._replies)))
        self._sync_spec_base()
        super().begin_speculation()

    def commit_speculation(self) -> None:
        super().commit_speculation()
        self._spec_marks.pop(0)
        self._sync_spec_base()

    def rollback_speculation(self) -> int:
        rolled = super().rollback_speculation()
        if self._spec_marks:
            history_mark, reply_mark = self._spec_marks[0]
            del self._history[history_mark:]
            del self._replies[reply_mark:]
            self._spec_marks.clear()
        self._sync_spec_base()
        return rolled

    def _sync_spec_base(self) -> None:
        if self._spec_marks:
            history_mark, reply_mark = self._spec_marks[0]
            self._recorder.set_speculative_base(
                self._recorder_id, history_mark, reply_mark
            )
        else:
            self._recorder.clear_speculative_base(self._recorder_id)


class PoisonableRecordingKV(RecordingKV):
    """Recording KV with a deterministic input-triggered bug, the KV analogue
    of :class:`repro.faults.buggy.BuggyServer`: once its replica id appears
    in the shared ``poisoned`` set, any mutation whose operation bytes
    contain the poison pattern kills the implementation *before* executing
    (so neither the history nor the cells ever see the poison op).  The
    failover factory builds a clean :class:`RecordingKV` on the same disk,
    modeling a diverse implementation without the bug."""

    def __init__(
        self,
        recorder: HistoryRecorder,
        replica_id: str,
        poisoned: Set[str],
        **kwargs,
    ) -> None:
        super().__init__(recorder, replica_id, **kwargs)
        self.replica_id = replica_id
        self._poisoned = poisoned

    def execute(self, op: bytes, client_id: str, nondet: bytes, read_only: bool = False) -> bytes:
        if not read_only and self.replica_id in self._poisoned and POISON in op:
            raise FaultInjected("deterministic bug: poison value pattern")
        return super().execute(op, client_id, nondet, read_only=read_only)


def order_divergence(
    history_segments: Dict[str, List[List[Tuple[str, bytes]]]],
    exclude=(),
) -> Optional[str]:
    """Pairwise execution-order consistency across incarnation segments.

    The sound mid-run form of the prefix property: for any two segments
    (across replicas, or across one replica's incarnations), the operations
    they *both* executed must appear in the same relative order.  Unlike the
    subsequence check this tolerates checkpoint-rollback re-execution after
    a reboot and replicas that are transiently ahead of each other.
    Operations are compared as ``(client_id, op)``, which the recording
    workloads keep unique.
    """
    excluded = frozenset(exclude)
    labelled: List[Tuple[str, List[Tuple[str, bytes]]]] = [
        (f"{rid}#{index}", segment)
        for rid in sorted(history_segments)
        if rid not in excluded
        for index, segment in enumerate(history_segments[rid])
        if segment
    ]
    for i, (label_a, seg_a) in enumerate(labelled):
        positions = {}
        for pos, entry in enumerate(seg_a):
            positions.setdefault(entry, pos)
        for label_b, seg_b in labelled[i + 1:]:
            last = -1
            for entry in seg_b:
                pos = positions.get(entry)
                if pos is None:
                    continue
                if pos < last:
                    return (
                        f"{label_b} and {label_a} executed common operations "
                        f"in conflicting orders (client {entry[0]!r})"
                    )
                last = pos
    return None


def canonical_committed_history(recorder: HistoryRecorder) -> List[Tuple[str, bytes]]:
    """The cluster's committed operation sequence, as evidenced by the most
    complete replica: per replica, concatenate its committed segments keeping
    the first occurrence of each ``(client_id, op)`` (a reboot legitimately
    re-executes the suffix above the stable checkpoint), then take the
    longest merged history.  Used by the differential harness — under the
    order oracles, any two configs that committed the same requests must
    produce identical canonical sequences.
    """
    committed = recorder.committed_history_segments()
    best: List[Tuple[str, bytes]] = []
    for rid in sorted(committed):
        merged: List[Tuple[str, bytes]] = []
        seen = set()
        for segment in committed[rid]:
            for entry in segment:
                if entry not in seen:
                    seen.add(entry)
                    merged.append(entry)
        if len(merged) > len(best):
            best = merged
    return best


def kv_group(
    service_for: Callable[[str], object],
    config=None,
    seed: int = 0,
    num_slots: int = 32,
    net_config=None,
    sim=None,
    repair=None,
    **kv,
):
    """One 4-replica group of KV services, behind every KV builder here and in
    :mod:`repro.bft.sharding`.  ``service_for(replica_id)`` lists the
    replica's N-version service classes (most have one; each takes
    :class:`KVStateMachine`'s keywords), built with ``num_slots`` cells and
    the ``kv`` keywords over the replica's disk.  ``net_config`` shapes the
    links (the overload benchmarks cap per-link bandwidth with it)."""
    from repro.bft.cluster import Cluster

    def bind(make):
        return lambda disk: make(num_slots=num_slots, disk=disk, **kv)

    def factory_for(replica_id: str):
        return [bind(make) for make in service_for(replica_id)]

    return Cluster(
        factory_for, config=config, seed=seed, net_config=net_config, sim=sim, repair=repair
    )


def kv_cluster(config=None, seed: int = 0, num_slots: int = 32, net_config=None):
    """A 4-replica cluster running the KV test service."""
    return kv_group(lambda _rid: [KVStateMachine], config, seed, num_slots, net_config)


def recording_cluster(
    config=None,
    seed: int = 0,
    num_slots: int = 32,
    net_config=None,
    repair=None,
    poisoned: Optional[Set[str]] = None,
):
    """A 4-replica recording cluster; returns ``(cluster, recorder)``.

    ``repair`` (a :class:`repro.bft.repair.RepairPolicy`) arms the
    fault-containment supervisor on every host.  ``poisoned`` — a shared,
    mutable set of replica ids — swaps each host's primary implementation for
    a :class:`PoisonableRecordingKV` (with a clean :class:`RecordingKV` as
    the failover implementation): add a replica id to the set and the next
    mutation containing the poison pattern crashes that replica.
    """
    recorder = HistoryRecorder()

    def service_for(replica_id: str):
        clean = partial(RecordingKV, recorder, replica_id)
        if poisoned is None:
            return [clean]
        return [partial(PoisonableRecordingKV, recorder, replica_id, poisoned), clean]

    return kv_group(service_for, config, seed, num_slots, net_config, repair=repair), recorder
