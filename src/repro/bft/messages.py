"""PBFT protocol messages.

Every message has a canonical byte encoding (:meth:`signable_bytes`) used for
MACs, signatures, and digests, and a :meth:`wire_size` used by the network
layer for byte accounting.  Normal-case messages (request, pre-prepare,
prepare, commit, reply, checkpoint) travel with MAC *authenticators*;
pre-prepares, prepares, and checkpoints additionally carry a signature so
they can be embedded as third-party-verifiable proofs inside view-change
messages (the OSDI'99 signature variant of the view-change protocol).

Encodings are computed once per instance and cached.  The first call to
:meth:`signable_bytes` (or any digest derived from it) *freezes* the message:
further field assignment raises :class:`FrozenMessageError`, so a cached
encoding can never go stale.  ``sig`` and ``auth`` stay assignable — they are
attached after the signable prefix is taken and are never part of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.crypto.auth import Authenticator
from repro.crypto.digest import combine_digests, digest
from repro.util.stats import Counters
from repro.util.xdr import XdrEncoder

#: Process-wide encode accounting (all replicas in a simulation share it):
#: ``message_encodes`` / ``message_encode_bytes`` count actual serializations;
#: a broadcast that serializes once shows one encode however many recipients
#: the send fans out to.
MESSAGE_STATS = Counters()

#: Fields legitimately attached after the canonical encoding exists.  The
#: signable prefix excludes them by construction, so mutating them cannot
#: invalidate any cache.
_POST_FREEZE_MUTABLE = frozenset({"auth", "sig"})


class FrozenMessageError(AttributeError):
    """A protocol field was assigned after the message's encoding was cached."""


def _caching_signable(encode: Callable[["Message"], bytes]) -> Callable[["Message"], bytes]:
    def signable_bytes(self: "Message") -> bytes:
        cached = self.__dict__.get("_signable")
        if cached is None:
            cached = encode(self)
            self.__dict__["_signable"] = cached
            self.__dict__["_frozen"] = True
            MESSAGE_STATS.add("message_encodes")
            MESSAGE_STATS.add("message_encode_bytes", len(cached))
        return cached

    signable_bytes.__doc__ = encode.__doc__
    signable_bytes._caching = True  # type: ignore[attr-defined]
    return signable_bytes


@dataclass
class Message:
    """Base class; subclasses fill in canonical encodings."""

    def __init_subclass__(cls, **kwargs: object) -> None:
        # Wrap each subclass's literal ``signable_bytes`` definition (the
        # protocol linter requires the method in every class body) with the
        # freeze-and-cache layer, without touching the wire format.
        super().__init_subclass__(**kwargs)
        encode = cls.__dict__.get("signable_bytes")
        if encode is not None and not getattr(encode, "_caching", False):
            cls.signable_bytes = _caching_signable(encode)  # type: ignore[method-assign]

    def __setattr__(self, name: str, value: object) -> None:
        if name not in _POST_FREEZE_MUTABLE and self.__dict__.get("_frozen"):
            raise FrozenMessageError(
                f"cannot assign {type(self).__name__}.{name}: the canonical "
                "encoding is cached; build a new message (dataclasses.replace) "
                "instead of mutating a signed one"
            )
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if name not in _POST_FREEZE_MUTABLE and self.__dict__.get("_frozen"):
            raise FrozenMessageError(
                f"cannot delete {type(self).__name__}.{name}: the canonical "
                "encoding is cached"
            )
        object.__delattr__(self, name)

    def _memo(self, key: str, compute: Callable[[], int]) -> int:
        """Cache a static size sub-sum directly in ``__dict__`` (bypassing the
        freeze guard; memo keys are not protocol fields)."""
        value = self.__dict__.get(key)
        if value is None:
            value = compute()
            self.__dict__[key] = value
        return value

    def signable_bytes(self) -> bytes:
        raise NotImplementedError

    def wire_size(self) -> int:
        # Sized once per recipient: read the cached encoding directly.
        signable = self.__dict__.get("_signable") or self.signable_bytes()
        size = len(signable)
        auth: Optional[Authenticator] = getattr(self, "auth", None)
        if auth is not None:
            size += auth.size_bytes()
        if getattr(self, "sig", b""):
            size += len(self.sig)  # type: ignore[attr-defined]
        return size


@dataclass
class Request(Message):
    """Client operation submitted for ordered (or read-only) execution."""

    client_id: str
    reqid: int
    op: bytes
    read_only: bool = False
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("REQUEST").pack_string(self.client_id)
        enc.pack_u64(self.reqid).pack_opaque(self.op).pack_bool(self.read_only)
        return enc.getvalue()

    def digest(self) -> bytes:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = digest(self.signable_bytes())
            self.__dict__["_digest"] = cached
        return cached


@dataclass
class Reply(Message):
    """Replica's answer to one request."""

    view: int
    reqid: int
    client_id: str
    replica_id: str
    result: bytes
    read_only: bool = False
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("REPLY").pack_u64(self.view).pack_u64(self.reqid)
        enc.pack_string(self.client_id).pack_string(self.replica_id)
        enc.pack_opaque(self.result).pack_bool(self.read_only)
        return enc.getvalue()


@dataclass
class SpecReply(Message):
    """Tentative (speculative) answer to one request, sent when the batch
    reached its prepare quorum but has not committed yet.  A client accepts a
    result from 2f+1 matching tentative replies *in the same view* — quorum
    intersection with any later view-change quorum then guarantees the batch
    keeps its sequence number.  Kept as a distinct message (instead of a bit
    on :class:`Reply`) so the committed reply wire format is untouched."""

    view: int
    reqid: int
    client_id: str
    replica_id: str
    result: bytes
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("SPEC-REPLY").pack_u64(self.view).pack_u64(self.reqid)
        enc.pack_string(self.client_id).pack_string(self.replica_id)
        enc.pack_opaque(self.result)
        return enc.getvalue()


@dataclass
class Lease(Message):
    """Primary-granted read lease: while it is the newest grant and no
    revocation for it has arrived, a replica in the same view whose
    ``last_executed`` has reached ``seqno`` may answer read-only requests
    directly.  Epochs are per-primary monotonic so grant/revoke races
    resolve deterministically; a view change invalidates every lease."""

    view: int
    epoch: int
    seqno: int
    primary_id: str
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("LEASE").pack_u64(self.view).pack_u64(self.epoch)
        enc.pack_u64(self.seqno).pack_string(self.primary_id)
        return enc.getvalue()


@dataclass
class LeaseRevoke(Message):
    """Revocation of every lease with epoch <= ``epoch``: multicast by the
    primary before it proposes a conflicting write, so no replica serves a
    leased read concurrently with an in-flight mutation."""

    view: int
    epoch: int
    primary_id: str
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("LEASE-REVOKE").pack_u64(self.view).pack_u64(self.epoch)
        enc.pack_string(self.primary_id)
        return enc.getvalue()


@dataclass
class Busy(Message):
    """Authenticated load-shed notice: the primary accepted nothing for this
    request and suggests a retry delay (micros, so the encoding stays
    integral).  Congestion-aware clients fold the hint into their capped
    exponential backoff; the message also proves the primary is alive, which
    is what keeps overload from being misread as a silent primary."""

    view: int
    reqid: int
    client_id: str
    replica_id: str
    retry_after_micros: int
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("BUSY").pack_u64(self.view).pack_u64(self.reqid)
        enc.pack_string(self.client_id).pack_string(self.replica_id)
        enc.pack_u64(self.retry_after_micros)
        return enc.getvalue()


def batch_digest(requests: List[Request], nondet: bytes) -> bytes:
    """Digest binding a pre-prepare's request batch and non-det value."""
    return combine_digests([r.digest() for r in requests] + [digest(nondet)])


@dataclass
class PrePrepare(Message):
    """Primary's ordering proposal for one batch at (view, seqno)."""

    view: int
    seqno: int
    requests: List[Request]
    nondet: bytes
    primary_id: str
    sig: bytes = b""
    auth: Optional[Authenticator] = None

    def batch_digest(self) -> bytes:
        cached = self.__dict__.get("_batch_digest")
        if cached is None:
            cached = batch_digest(self.requests, self.nondet)
            self.__dict__["_batch_digest"] = cached
            # The digest binds requests + nondet, so caching it freezes the
            # message exactly like caching the full encoding does.
            self.__dict__["_frozen"] = True
        return cached

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("PRE-PREPARE").pack_u64(self.view).pack_u64(self.seqno)
        enc.pack_fixed_opaque(self.batch_digest(), 32)
        enc.pack_string(self.primary_id)
        return enc.getvalue()

    def wire_size(self) -> int:
        return super().wire_size() + self._memo(
            "_wire_extra",
            lambda: sum(r.wire_size() for r in self.requests) + len(self.nondet),
        )


@dataclass
class Prepare(Message):
    """Backup's agreement to the primary's (view, seqno, digest) binding."""

    view: int
    seqno: int
    digest: bytes
    replica_id: str
    sig: bytes = b""
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("PREPARE").pack_u64(self.view).pack_u64(self.seqno)
        enc.pack_fixed_opaque(self.digest, 32).pack_string(self.replica_id)
        return enc.getvalue()


@dataclass
class Commit(Message):
    """Second-phase vote: sender has a prepared certificate.

    Signed as well as MAC'd so that commit certificates can be relayed to a
    replica whose session keys have been refreshed by proactive recovery
    (MAC tags die with the old epoch; signatures do not)."""

    view: int
    seqno: int
    digest: bytes
    replica_id: str
    sig: bytes = b""
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("COMMIT").pack_u64(self.view).pack_u64(self.seqno)
        enc.pack_fixed_opaque(self.digest, 32).pack_string(self.replica_id)
        return enc.getvalue()


@dataclass
class Checkpoint(Message):
    """Proof share that the sender's state at ``seqno`` has ``state_digest``."""

    seqno: int
    state_digest: bytes
    replica_id: str
    sig: bytes = b""
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("CHECKPOINT").pack_u64(self.seqno)
        enc.pack_fixed_opaque(self.state_digest, 32).pack_string(self.replica_id)
        return enc.getvalue()


@dataclass
class PreparedProof:
    """A pre-prepare plus 2f matching signed prepares: proves a request batch
    prepared at some replica, transferable inside view changes."""

    pre_prepare: PrePrepare
    prepares: List[Prepare] = field(default_factory=list)

    def seqno(self) -> int:
        return self.pre_prepare.seqno

    def view(self) -> int:
        return self.pre_prepare.view

    def digest(self) -> bytes:
        return self.pre_prepare.batch_digest()

    def wire_size(self) -> int:
        return self.pre_prepare.wire_size() + sum(p.wire_size() for p in self.prepares)


@dataclass
class ViewChange(Message):
    """Vote to move to ``new_view``; carries the sender's stable-checkpoint
    proof and every prepared certificate above it."""

    new_view: int
    stable_seqno: int
    checkpoint_proof: List[Checkpoint]
    prepared: List[PreparedProof]
    replica_id: str
    sig: bytes = b""

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("VIEW-CHANGE").pack_u64(self.new_view)
        enc.pack_u64(self.stable_seqno).pack_string(self.replica_id)
        enc.pack_u32(len(self.checkpoint_proof))
        for ckpt in self.checkpoint_proof:
            enc.pack_opaque(ckpt.signable_bytes())
        enc.pack_u32(len(self.prepared))
        for proof in self.prepared:
            enc.pack_opaque(proof.pre_prepare.signable_bytes())
        return enc.getvalue()

    def wire_size(self) -> int:
        return (
            len(self.signable_bytes())
            + len(self.sig)
            + self._memo("_wire_extra", lambda: sum(p.wire_size() for p in self.prepared))
        )


@dataclass
class NewView(Message):
    """New primary's certificate for ``view``: 2f+1 view-changes plus the
    pre-prepares re-issued for in-flight sequence numbers."""

    view: int
    view_changes: List[ViewChange]
    pre_prepares: List[PrePrepare]
    primary_id: str
    sig: bytes = b""

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("NEW-VIEW").pack_u64(self.view).pack_string(self.primary_id)
        enc.pack_u32(len(self.view_changes))
        for vc in self.view_changes:
            enc.pack_opaque(vc.signable_bytes())
        enc.pack_u32(len(self.pre_prepares))
        for pp in self.pre_prepares:
            enc.pack_opaque(pp.signable_bytes())
        return enc.getvalue()

    def wire_size(self) -> int:
        return (
            len(self.signable_bytes())
            + len(self.sig)
            + self._memo(
                "_wire_extra",
                lambda: sum(v.wire_size() for v in self.view_changes)
                + sum(p.wire_size() for p in self.pre_prepares),
            )
        )


@dataclass
class Status(Message):
    """Periodic gossip: lets peers retransmit what the sender is missing."""

    replica_id: str
    view: int
    stable_seqno: int
    last_executed: int
    in_view_change: bool = False
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("STATUS").pack_string(self.replica_id)
        enc.pack_u64(self.view).pack_u64(self.stable_seqno)
        enc.pack_u64(self.last_executed).pack_bool(self.in_view_change)
        return enc.getvalue()


@dataclass
class CheckpointCert(Message):
    """2f+1 matching signed checkpoint messages: a transferable proof that
    the state at ``seqno`` has digest ``state_digest``."""

    seqno: int
    state_digest: bytes
    proof: List[Checkpoint] = field(default_factory=list)

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("CHECKPOINT-CERT").pack_u64(self.seqno)
        enc.pack_fixed_opaque(self.state_digest, 32)
        enc.pack_u32(len(self.proof))
        for ckpt in self.proof:
            enc.pack_opaque(ckpt.signable_bytes())
        return enc.getvalue()

    def wire_size(self) -> int:
        return len(self.signable_bytes()) + self._memo(
            "_wire_extra", lambda: sum(len(c.sig) for c in self.proof)
        )


@dataclass
class RetransmitCommitted(Message):
    """Catch-up help for a lagging replica: committed pre-prepares plus the
    prepare certificates (signed, so they survive key-epoch refreshes) and
    commit votes (multicast authenticators, re-MAC'd for the sender's own
    votes)."""

    replica_id: str
    entries: List[Tuple[PrePrepare, List[Prepare], List[Commit]]] = field(
        default_factory=list
    )

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("RETRANSMIT").pack_string(self.replica_id)
        enc.pack_u32(len(self.entries))
        for pp, _prepares, _commits in self.entries:
            enc.pack_opaque(pp.signable_bytes())
        return enc.getvalue()

    def wire_size(self) -> int:
        def extra() -> int:
            size = 0
            for pp, prepares, commits in self.entries:
                size += pp.wire_size()
                size += sum(p.wire_size() for p in prepares)
                size += sum(c.wire_size() for c in commits)
            return size

        return len(self.signable_bytes()) + self._memo("_wire_extra", extra)


# --- state transfer -----------------------------------------------------------


@dataclass
class FetchRoot(Message):
    """Ask a donor for its stable checkpoint certificate (transfer session
    setup)."""

    requester: str
    min_seqno: int

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("FETCH-ROOT").pack_string(self.requester)
        enc.pack_u64(self.min_seqno)
        return enc.getvalue()


@dataclass
class TransferRoot(Message):
    """Donor's stable checkpoint certificate, anchoring a transfer session."""

    replica_id: str
    cert: CheckpointCert

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("TRANSFER-ROOT").pack_string(self.replica_id)
        enc.pack_opaque(self.cert.signable_bytes())
        return enc.getvalue()

    def wire_size(self) -> int:
        return len(self.signable_bytes()) + self.cert.wire_size()



@dataclass
class FetchMeta(Message):
    """Ask for partition-tree metadata (children of one interior node) at the
    newest checkpoint >= ``min_seqno``."""

    requester: str
    level: int
    index: int
    min_seqno: int

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("FETCH-META").pack_string(self.requester)
        enc.pack_u32(self.level).pack_u64(self.index).pack_u64(self.min_seqno)
        return enc.getvalue()


@dataclass
class MetaReply(Message):
    """Children ⟨lm, digest⟩ pairs for one partition at checkpoint ``seqno``."""

    replica_id: str
    seqno: int
    level: int
    index: int
    children: List[Tuple[int, bytes]]

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("META-REPLY").pack_string(self.replica_id)
        enc.pack_u64(self.seqno).pack_u32(self.level).pack_u64(self.index)
        enc.pack_u32(len(self.children))
        for lm, child_digest in self.children:
            enc.pack_u64(lm).pack_fixed_opaque(child_digest, 32)
        return enc.getvalue()


@dataclass
class FetchObject(Message):
    """Ask for the value of abstract object ``index`` at checkpoint >= min_seqno."""

    requester: str
    index: int
    min_seqno: int

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("FETCH-OBJECT").pack_string(self.requester)
        enc.pack_u64(self.index).pack_u64(self.min_seqno)
        return enc.getvalue()


@dataclass
class ObjectReply(Message):
    """Value of abstract object ``index`` at checkpoint ``seqno``."""

    replica_id: str
    index: int
    seqno: int
    data: bytes

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("OBJECT-REPLY").pack_string(self.replica_id)
        enc.pack_u64(self.index).pack_u64(self.seqno).pack_opaque(self.data)
        return enc.getvalue()


# --- proactive recovery --------------------------------------------------------


@dataclass
class Recovering(Message):
    """Announcement that a replica has begun a proactive recovery."""

    replica_id: str
    epoch: int

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("RECOVERING").pack_string(self.replica_id).pack_u64(self.epoch)
        return enc.getvalue()


@dataclass
class Recovered(Message):
    """Announcement that a replica finished proactive recovery."""

    replica_id: str
    epoch: int

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("RECOVERED").pack_string(self.replica_id).pack_u64(self.epoch)
        return enc.getvalue()


# --- cross-shard transactions (client-coordinated 2PC) -------------------------


@dataclass
class TxnPrepare(Message):
    """Phase-1 PREPARE for cross-shard transaction ``txid``.

    Carries the write set this shard is responsible for, as (local object
    index, value) pairs.  The canonical encoding rides as the ``op`` bytes of
    a normal :class:`Request`, so each shard orders the prepare through its
    ordinary BFT pipeline and the replicated client table makes it at-most-once
    by reqid (docs/sharding.md).
    """

    txid: str
    writes: List[Tuple[int, bytes]]
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("TXN-PREPARE").pack_string(self.txid)
        enc.pack_u32(len(self.writes))
        for index, value in self.writes:
            enc.pack_u32(index)
            enc.pack_opaque(value)
        return enc.getvalue()


@dataclass
class TxnDecide(Message):
    """Phase-2 decision for cross-shard transaction ``txid``.

    ``commit`` is True only when the coordinator holds an f+1 commit-vote
    certificate from every participant shard — and the decide now *carries*
    that certificate: ``votes`` lists, per participant shard, the replica ids
    whose matching VOTE-COMMIT replies formed the quorum.  Participants verify
    the certificate before applying a commit, so a faulty coordinator cannot
    forge a commit out of thin air (it can still only *withhold*, which the
    abandonment path already covers).  Aborts are always safe and carry no
    certificate.  Ordered through each shard's normal BFT pipeline exactly
    like :class:`TxnPrepare`; first decision for a txid wins and
    retransmissions are answered from the recorded outcome.
    """

    txid: str
    commit: bool
    votes: List[Tuple[int, List[str]]] = field(default_factory=list)
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("TXN-DECIDE").pack_string(self.txid).pack_bool(self.commit)
        enc.pack_u32(len(self.votes))
        for shard, replica_ids in self.votes:
            enc.pack_u32(shard)
            enc.pack_u32(len(replica_ids))
            for replica_id in replica_ids:
                enc.pack_string(replica_id)
        return enc.getvalue()

# --- fused-backup tier (erasure-coded parity over abstract state) ---------------


@dataclass
class ParityUpdate(Message):
    """Incremental parity feed from one shard replica to a fused node.

    Sent when checkpoint ``seqno`` becomes stable: ``deltas`` holds, per
    modified abstract leaf, the XOR of the leaf's fixed-width fusion cells at
    the previous stable checkpoint ``base_seqno`` and at ``seqno``.  Linearity
    of the code lets the fused node fold the scaled delta straight into its
    parity block.  ``cert`` is the stable-checkpoint certificate for
    ``seqno``; it is *self-verifying* (2f+1 signed checkpoints) and its proof
    set legitimately differs between senders, so it rides outside the signable
    prefix — the fused node verifies the proof quorum itself and matches
    updates across senders on the signable fields alone.
    """

    shard: int
    base_seqno: int
    seqno: int
    slot_width: int
    num_leaves: int
    deltas: List[Tuple[int, bytes]] = field(default_factory=list)
    cert: Optional[CheckpointCert] = None
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("PARITY-UPDATE").pack_u32(self.shard)
        enc.pack_u64(self.base_seqno).pack_u64(self.seqno)
        enc.pack_u32(self.slot_width).pack_u32(self.num_leaves)
        enc.pack_u32(len(self.deltas))
        for index, delta in self.deltas:
            enc.pack_u32(index)
            enc.pack_opaque(delta)
        return enc.getvalue()

    def wire_size(self) -> int:
        size = len(self.signable_bytes())
        if self.cert is not None:
            size += self.cert.wire_size()
        auth: Optional[Authenticator] = getattr(self, "auth", None)
        if auth is not None:
            size += auth.size_bytes()
        return size


@dataclass
class ParityAck(Message):
    """Fused node's acknowledgement that shard ``shard`` is covered through
    checkpoint ``seqno`` — the feeding replica may release its GC pin on the
    previous checkpoint once every fused node has acked past it."""

    parity_id: str
    shard: int
    seqno: int
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("PARITY-ACK").pack_string(self.parity_id)
        enc.pack_u32(self.shard).pack_u64(self.seqno)
        return enc.getvalue()


@dataclass
class FusionFetch(Message):
    """Ask a shard replica for its full abstract state as one fusion data
    block.  ``seqno == 0`` means "your latest stable checkpoint" (bootstrap
    and resync); otherwise the donor serves exactly checkpoint ``seqno`` if it
    still holds it.  Cells are packed at the requested ``slot_width`` so every
    donor's block is byte-comparable."""

    parity_id: str
    shard: int
    seqno: int
    slot_width: int
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("FUSION-FETCH").pack_string(self.parity_id)
        enc.pack_u32(self.shard).pack_u64(self.seqno)
        enc.pack_u32(self.slot_width)
        return enc.getvalue()


@dataclass
class FusionBlock(Message):
    """One shard replica's full abstract state at checkpoint ``seqno``,
    packed into fixed-width fusion cells, plus the matching checkpoint
    certificate (outside the signable prefix for the same reason as
    :class:`ParityUpdate`: proof sets differ per donor)."""

    replica_id: str
    shard: int
    seqno: int
    slot_width: int
    num_leaves: int
    block: bytes = b""
    cert: Optional[CheckpointCert] = None
    auth: Optional[Authenticator] = None

    def signable_bytes(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_string("FUSION-BLOCK").pack_string(self.replica_id)
        enc.pack_u32(self.shard).pack_u64(self.seqno)
        enc.pack_u32(self.slot_width).pack_u32(self.num_leaves)
        enc.pack_opaque(self.block)
        return enc.getvalue()

    def wire_size(self) -> int:
        size = len(self.signable_bytes())
        if self.cert is not None:
            size += self.cert.wire_size()
        auth: Optional[Authenticator] = getattr(self, "auth", None)
        if auth is not None:
            size += auth.size_bytes()
        return size
