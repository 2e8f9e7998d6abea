"""Cross-shard transactions: client-coordinated 2PC over per-shard BFT groups.

The Basil-style layering (PAPERS.md): each shard is an ordinary BASE group
that orders *everything* — including transaction traffic — through its normal
pre-prepare/prepare/commit pipeline.  The transactional layer adds no new
replica-to-replica protocol; it rides entirely on the existing client API:

* A :class:`~repro.bft.messages.TxnPrepare` / :class:`~repro.bft.messages.TxnDecide`
  message's canonical encoding travels as the ``op`` bytes of a normal
  :class:`~repro.bft.messages.Request`, so at-most-once execution comes from
  the replicated client table (reqid-monotone per client, part of the Merkle
  abstract state) and durability from ordinary checkpoints.
* The coordinator is the *client* (:class:`TxnCoordinator`): phase 1 fans a
  prepare out to every participant shard and collects an f+1 commit-vote
  certificate per shard; the decision is commit iff every shard certifies a
  commit vote.  Phase 2 fans the decision out; first decision ordered at a
  shard wins and later decides are answered from the recorded outcome, so a
  crashed coordinator is recovered by *anyone* retransmitting either decide.
* The participant (:class:`TxnParticipant`) is deterministic replica-resident
  state: prepared write sets, per-object locks, and decided-transaction
  tombstones, all serialized into one reserved cell of the abstract object
  array — so they are covered by checkpoints, state transfer, and the
  speculation undo machinery for free (the whole point of the paper's
  abstraction layer).

Abort paths never leak locks: an abandoning coordinator retransmits the
decision it reached if any (never inventing an abort for a transaction whose
commit decide may already be ordered somewhere), and a decide ordered before
its own prepare leaves a tombstone that makes the late prepare vote the
decided way without acquiring locks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bft.client import Client
from repro.bft.messages import Message, Reply, TxnDecide, TxnPrepare, decode_message
from repro.util.stats import Counters
from repro.util.xdr import XdrDecoder, XdrEncoder

#: Participant replies, matched by the coordinator across f+1 replicas.
VOTE_COMMIT = b"TXN VOTE-COMMIT"
VOTE_ABORT = b"TXN VOTE-ABORT"
TXN_COMMITTED = b"TXN COMMITTED"
TXN_ABORTED = b"TXN ABORTED"
#: Commit decide rejected: its vote certificate was missing or malformed.
#: No state changes and no tombstone — a later decide with a valid
#: certificate (or an abort) still decides the transaction.
TXN_BAD_CERT = b"TXN BAD-CERT"

_PREPARE_TAG = TxnPrepare.wire_tag
_DECIDE_TAG = TxnDecide.wire_tag


def encode_txn_prepare(txid: str, writes: List[Tuple[int, bytes]]) -> bytes:
    """The prepare's canonical encoding, used directly as request op bytes."""
    return TxnPrepare(txid=txid, writes=list(writes)).signable_bytes()


def encode_txn_decide(
    txid: str,
    commit: bool,
    votes: Optional[List[Tuple[int, List[str]]]] = None,
) -> bytes:
    """The decision's canonical encoding, used directly as request op bytes.

    A commit decision carries its vote certificate (``votes``: per shard, the
    f+1 replica ids whose matching VOTE-COMMIT replies certified the shard's
    vote); participants refuse commits without one.  Aborts are always safe
    and carry none.
    """
    return TxnDecide(txid=txid, commit=commit, votes=list(votes or [])).signable_bytes()


def is_txn_op(op: bytes) -> bool:
    return op.startswith(_PREPARE_TAG) or op.startswith(_DECIDE_TAG)


def decode_txn_op(op: bytes) -> Optional[Message]:
    """Parse op bytes back into a transaction message, or None for plain ops
    (including ops that merely share the tag prefix but fail to parse)."""
    if not is_txn_op(op):
        return None
    try:
        return decode_message(op)
    except ValueError:  # XdrError, or a txid / replica id that is not UTF-8
        return None


class TxnParticipant:
    """Per-replica transactional state, persisted in one abstract object.

    The reserved ``table_index`` cell of the service's object array holds the
    canonical serialization of everything ``execute`` reads: pending prepares
    (vote + buffered write set) and decided-transaction tombstones.  Because
    the cell is an ordinary abstract object, checkpoint digests cover it,
    state transfer ships it, and speculation rollback restores it — the
    in-memory mirrors here are rebuilt from the cell by :meth:`reload`
    whenever the abstraction layer rewrites objects underneath us.

    Tombstones are kept for decided transactions so that (a) a retransmitted
    decide is answered with the recorded outcome and (b) a prepare ordered
    *after* its transaction's decide (the abandon race) votes the decided way
    without taking locks.  Production would garbage-collect tombstones below
    a coordinator low-water mark; at simulation scale they stay.
    """

    def __init__(self, service, table_index: int, weak_quorum: int = 2) -> None:
        if table_index < 1:
            raise ValueError("transactional services need at least one data slot")
        self.service = service
        self.table_index = table_index
        #: f+1 for the group size this deployment runs: the smallest reply
        #: set guaranteed to contain one honest replica, and therefore the
        #: smallest acceptable per-shard entry in a commit-vote certificate.
        self.weak_quorum = weak_quorum
        self.counters = Counters()
        self._pending: Dict[str, Tuple[bool, List[Tuple[int, bytes]]]] = {}
        self._decided: Dict[str, bool] = {}
        self._locks: Dict[int, str] = {}
        # Each entry's encoding beside its mirror entry: a persist joins
        # them instead of re-packing every prepare and tombstone recorded.
        self._pending_bytes: Dict[str, bytes] = {}
        self._decided_bytes: Dict[str, bytes] = {}
        self.reload()

    # -- dispatch -------------------------------------------------------------------

    def execute(self, message: Message, client_id: str) -> bytes:
        if isinstance(message, TxnPrepare):
            return self.apply_prepare(message)
        if isinstance(message, TxnDecide):
            return self.apply_decide(message)
        return b"ERR unknown txn op"

    # -- phase 1: prepare ------------------------------------------------------------

    def apply_prepare(self, message: TxnPrepare) -> bytes:
        self.counters.add("txn_prepares")
        txid = message.txid
        if txid in self._decided:
            # Late prepare after an abandon decide: vote the decided way and
            # take no locks — there is nothing left to decide.
            return VOTE_COMMIT if self._decided[txid] else VOTE_ABORT
        if txid in self._pending:
            vote, _ = self._pending[txid]
            return VOTE_COMMIT if vote else VOTE_ABORT
        vote = True
        for index, _value in message.writes:
            if not 0 <= index < self.table_index:
                vote = False
            elif self._locks.get(index, txid) != txid:
                self.counters.add("txn_lock_conflicts")
                vote = False
        self._set_pending(txid, vote, list(message.writes))
        if vote:
            for index, _value in message.writes:
                self._locks[index] = txid
            self.counters.add("txn_votes_commit")
        else:
            self.counters.add("txn_votes_abort")
        self._persist()
        return VOTE_COMMIT if vote else VOTE_ABORT

    # -- phase 2: decide -------------------------------------------------------------

    def _valid_vote_certificate(self, message: TxnDecide) -> bool:
        """Structural check of a commit decide's vote certificate.

        Every listed shard must contribute at least ``weak_quorum`` (f+1)
        *distinct*, non-empty replica ids — the smallest set that provably
        contains one honest replica's VOTE-COMMIT.  Replies are MAC'd
        client-to-replica, so the certificate is not third-party verifiable
        cryptography; it is accountable evidence a coordinator cannot omit:
        the planted ``forged-decide`` coordinator, which never collected the
        votes, has nothing to put here (docs/fusion.md discusses the trust
        model; docs/sharding.md the 2PC protocol).
        """
        if not message.votes:
            return False
        seen_shards = set()
        for shard, replica_ids in message.votes:
            if shard in seen_shards:
                return False
            seen_shards.add(shard)
            distinct = {rid for rid in replica_ids if rid}
            if len(distinct) < self.weak_quorum:
                return False
        return True

    def apply_decide(self, message: TxnDecide) -> bytes:
        self.counters.add("txn_decides")
        txid = message.txid
        if txid in self._decided:
            # Retransmitted decide: answer from the recorded outcome.
            self.counters.add("txn_decides_stale")
            return TXN_COMMITTED if self._decided[txid] else TXN_ABORTED
        if message.commit and not self._valid_vote_certificate(message):
            # A forged or certificate-less commit is rejected outright: no
            # tombstone, no lock release — the transaction stays pending so a
            # well-formed decide can still settle it either way.
            self.counters.add("txn_decides_rejected")
            return TXN_BAD_CERT
        if txid in self._pending:
            vote, writes = self._pending.pop(txid)
            del self._pending_bytes[txid]
            committed = message.commit and vote
            if committed:
                for index, value in writes:
                    self.service.manager.modify(index)
                    self.service.cells[index] = value
                    self.service.disk[index] = value
            self._locks = {
                index: owner for index, owner in self._locks.items() if owner != txid
            }
        else:
            # Decide ordered before its prepare (abandon race).  A commit
            # decision needs this shard's certified vote, which needs the
            # prepare ordered first — so this path only ever records aborts.
            committed = False
        self._set_decided(txid, committed)
        self.counters.add("txn_commits_applied" if committed else "txn_aborts_applied")
        self._persist()
        return TXN_COMMITTED if committed else TXN_ABORTED

    # -- queries ----------------------------------------------------------------------

    def locked(self, index: int) -> bool:
        """Is ``index`` held by a prepared-but-undecided transaction?"""
        return index in self._locks

    @property
    def decisions(self) -> Dict[str, bool]:
        """txid -> committed, as recorded by this replica (oracle evidence)."""
        return self._decided

    # -- persistence -------------------------------------------------------------------

    def reload(self) -> None:
        """Rebuild the in-memory mirrors from the table cell (called after
        reboot, state transfer, object repair, and speculation rollback)."""
        self._pending = {}
        self._decided = {}
        self._locks = {}
        self._pending_bytes = {}
        self._decided_bytes = {}
        blob = self.service.cells[self.table_index]
        if not blob:
            return
        dec = XdrDecoder(blob)
        for _ in range(dec.unpack_u32()):
            txid = dec.unpack_string()
            vote = dec.unpack_bool()
            writes = [
                (dec.unpack_u32(), dec.unpack_opaque())
                for _ in range(dec.unpack_u32())
            ]
            self._set_pending(txid, vote, writes)
            if vote:
                for index, _value in writes:
                    self._locks[index] = txid
        for _ in range(dec.unpack_u32()):
            txid = dec.unpack_string()
            self._set_decided(txid, dec.unpack_bool())

    def _set_pending(self, txid: str, vote: bool, writes: List[Tuple[int, bytes]]) -> None:
        self._pending[txid] = (vote, writes)
        enc = XdrEncoder().pack_string(txid).pack_bool(vote).pack_u32(len(writes))
        for index, value in writes:
            enc.pack_u32(index).pack_opaque(value)
        self._pending_bytes[txid] = enc.getvalue()

    def _set_decided(self, txid: str, committed: bool) -> None:
        self._decided[txid] = committed
        self._decided_bytes[txid] = XdrEncoder().pack_string(txid).pack_bool(committed).getvalue()

    def _persist(self) -> None:
        """The table cell: pending entries, then tombstones, each counted
        and in sorted-txid order."""
        parts = [XdrEncoder().pack_u32(len(self._pending_bytes)).getvalue()]
        parts += [self._pending_bytes[txid] for txid in sorted(self._pending_bytes)]
        parts.append(XdrEncoder().pack_u32(len(self._decided_bytes)).getvalue())
        parts += [self._decided_bytes[txid] for txid in sorted(self._decided_bytes)]
        blob = b"".join(parts)
        self.service.manager.modify(self.table_index)
        self.service.cells[self.table_index] = blob
        self.service.disk[self.table_index] = blob


class VoteClient(Client):
    """Client whose reply provenance is inspectable.

    The base client merges matching results and reports only the agreed
    bytes; a 2PC coordinator additionally needs to know *which replicas*
    produced the matching vote, so it can certify the vote against f+1
    itself instead of trusting the merge."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.last_replies: Dict[str, bytes] = {}

    def invoke_async(self, op, callback, read_only: bool = False) -> int:
        self.last_replies = {}
        return super().invoke_async(op, callback, read_only=read_only)

    def _note_reply(self, message: Reply, src: str) -> None:
        self.last_replies[src] = message.result


class TxnCoordinator:
    """Client-side 2PC driver for one transaction across several shards.

    Phase 1 fans :class:`TxnPrepare` out through each participant shard's
    vote client.  A shard's vote counts as commit only when f+1 of its
    replicas said ``VOTE_COMMIT`` (one honest replica inside any f+1 set);
    the first certified abort vote decides abort immediately.  Phase 2 fans
    the :class:`TxnDecide` out and reports completion once every shard
    acknowledged its decide.  ``decision`` stays readable after ``cancel``
    so an abandoning caller can retransmit the reached outcome instead of
    inventing one.
    """

    def __init__(
        self,
        txid: str,
        writes_by_shard: Dict[int, List[Tuple[int, bytes]]],
        clients: Dict[int, VoteClient],
        config,
        callback: Callable[[bool], None],
    ) -> None:
        self.txid = txid
        self.writes_by_shard = writes_by_shard
        self.clients = clients
        self.config = config
        self.callback = callback
        self.contacted: List[int] = sorted(writes_by_shard)
        self.votes: Dict[int, bool] = {}
        #: Per shard, the sorted replica ids whose matching VOTE-COMMIT
        #: replies certified the shard's commit vote — the raw material of
        #: the vote certificate a commit decide must carry.
        self.vote_ids: Dict[int, List[str]] = {}
        self.acks: Dict[int, bool] = {}
        self.decision: Optional[bool] = None
        self.done = False
        self.cancelled = False

    def start(self) -> None:
        for shard in self.contacted:
            op = encode_txn_prepare(self.txid, self.writes_by_shard[shard])
            self.clients[shard].invoke_async(
                op, lambda result, shard=shard: self._on_vote(shard, result)
            )

    def _on_vote(self, shard: int, result: bytes) -> None:
        if self.cancelled or self.decision is not None:
            return
        vote_replies = [
            src
            for src, reply in self.clients[shard].last_replies.items()
            if reply == result
        ]
        certified = len(vote_replies) >= self.config.weak_quorum
        self.votes[shard] = certified and result == VOTE_COMMIT
        if self.votes[shard]:
            self.vote_ids[shard] = sorted(vote_replies)[: self.config.weak_quorum]
        if not self.votes[shard]:
            self._decide(False)
        elif len(self.votes) == len(self.contacted):
            self._decide(True)

    def vote_certificate(self) -> List[Tuple[int, List[str]]]:
        """The f+1-per-shard vote certificate backing a commit decision."""
        return [(shard, list(self.vote_ids[shard])) for shard in self.contacted]

    def _decide(self, commit: bool) -> None:
        self.decision = commit
        op = encode_txn_decide(
            self.txid, commit, self.vote_certificate() if commit else None
        )
        for shard in self.contacted:
            client = self.clients[shard]
            if client._current is not None:
                # Abort before every vote arrived: drop the outstanding
                # prepare; the decide tombstone neutralizes it server-side.
                client.cancel()
            client.invoke_async(
                op, lambda result, shard=shard: self._on_ack(shard, result)
            )

    def _on_ack(self, shard: int, result: bytes) -> None:
        if self.cancelled:
            return
        self.acks[shard] = True
        if len(self.acks) == len(self.contacted) and not self.done:
            self.done = True
            self.callback(bool(self.decision))

    def cancel(self) -> None:
        """Stop driving the protocol (the caller handles retransmission)."""
        self.cancelled = True
