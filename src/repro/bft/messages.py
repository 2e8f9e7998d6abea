"""PBFT protocol messages.

Every message has a canonical byte encoding (:meth:`Message.signable_bytes`)
used for MACs, signatures, and digests, and a :meth:`Message.wire_size` used
by the network layer for byte accounting.  A message is authenticated once, by
a signature or by a MAC *authenticator*, never both.  Pre-prepares, prepares,
commits and checkpoints are signed so they can be embedded as
third-party-verifiable proofs inside view-change messages (the OSDI'99
signature variant of the view-change protocol) and relayed across key-epoch
refreshes; that signature is all they carry, like view-changes and new-views.
Client traffic, status gossip, leases and the transaction and fusion messages
travel with an authenticator (``Replica.auth_multicast`` decides which;
docs/protocol.md); state-transfer replies are checked against certified
digests instead.

A class declares its wire format once, ``WIRE = Wire(...)`` beside its fields;
encoder, size, tag registry and decoder derive from it (docs/protocol.md).

Encodings are computed once per instance and cached.  The first call to
:meth:`signable_bytes` (or any digest derived from it) *freezes* the message:
further field assignment raises :class:`FrozenMessageError`, so a cached
encoding can never go stale.  ``sig`` and ``auth`` stay assignable — they are
attached after the signable prefix is taken and are never part of it.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter, methodcaller
from typing import Dict, List, NamedTuple, Optional, Tuple, Type

from repro.crypto.auth import Authenticator
from repro.crypto.digest import combine_digests, digest
from repro.util.stats import Counters
from repro.util.xdr import (
    BOOL,
    OPAQUE,
    STRING,
    U32,
    U64,
    Kind,
    XdrDecoder,
    XdrEncoder,
    XdrError,
    array,
    codec,
    fixed_opaque,
    tuple_of,
)

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


DIGEST = fixed_opaque(32)
#: A nested message's signed prefix, as one opaque.  What the nested message
#: carries outside its own prefix is not in these bytes, hence no decoder.
EMBEDDED = Kind(lambda value: f"enc.pack_opaque({value}.signable_bytes())", None)
#: A tuple position that is carried, not signed.
UNSIGNED = Kind(lambda value: "None", None)


class Wire(NamedTuple):
    """A message class's wire format, declared once."""

    #: Opens the encoding; unique per class, so that no message type can
    #: alias another under the same MAC (domain separation).
    tag: str
    #: The signed prefix after the tag, in wire order (not always field
    #: order): attribute expression -> kind.  ``"batch_digest()"`` is derived.
    signed: Dict[str, Kind]
    #: Attribute expressions travelling *outside* the signed prefix: they count
    #: toward ``wire_size`` only (messages at theirs, bytes at their length).
    carried: Tuple[str, ...] = ()


#: Wire tag -> the one message class that declared it.
MESSAGE_TYPES: Dict[str, Type["Message"]] = {}


def _carried_size(value: object) -> int:
    if isinstance(value, (list, tuple)):
        return sum(map(_carried_size, value))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    return 0 if value is None else value.wire_size()  # type: ignore[attr-defined]


def decode_message(data: bytes) -> "Message":
    """Rebuild a message whose signed prefix is all of it (nothing embedded,
    derived or carried).  Any other class or tag, a malformed stream or trailing
    bytes raise ``ValueError`` (:class:`XdrError`; ``UnicodeDecodeError`` for a bad string)."""
    dec = XdrDecoder(data)
    cls = MESSAGE_TYPES.get(dec.unpack_string())
    if cls is None or cls.unpack is None:
        raise XdrError("not the encoding of a decodable message")
    return dec.unpack_last(cls)


_FROM_FACTORY = object()  #: the default of a field with a ``default_factory``


def message(cls: type) -> type:
    """``dataclass(cls)`` with an ``__init__`` that writes the fields into the
    instance ``__dict__`` directly.  A message under construction cannot be
    frozen yet, so the guard in :meth:`Message.__setattr__` has nothing to
    check there; it still runs for every assignment after construction."""
    cls = dataclass(cls, init=False)
    params, body = [], ["    state = self.__dict__"]
    names: Dict[str, object] = {"_FROM_FACTORY": _FROM_FACTORY}
    for f in fields(cls):
        param = value = f.name
        if f.default is not MISSING:
            names[f"_default_{f.name}"] = f.default
            param = f"{f.name}=_default_{f.name}"
        elif f.default_factory is not MISSING:
            names[f"_factory_{f.name}"] = f.default_factory
            param = f"{f.name}=_FROM_FACTORY"
            value = f"_factory_{f.name}() if {f.name} is _FROM_FACTORY else {f.name}"
        params.append(param)
        body.append(f"    state[{f.name!r}] = {value}")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
    exec(source, names)  # input: the repo's own message declarations only
    init = names["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@dataclass
class Message:
    """Base class; a subclass is a :func:`message` that declares ``WIRE``, and
    the rest is derived."""

    def __init_subclass__(cls, **kwargs: object) -> None:
        """Register the tag and derive, from ``WIRE``: ``pack(self, enc)``, the
        straight-line encoder; ``unpack(dec)``, the decoder, if the signed prefix
        is the whole message; ``_carried(self)``, the carried values, if any."""
        super().__init_subclass__(**kwargs)
        wire = cls.__dict__.get("WIRE")
        if not isinstance(wire, Wire):
            raise TypeError(f"message class {cls.__name__} declares no WIRE (tag and fields)")
        codec(wire.signed, (STRING, wire.tag), MESSAGE_TYPES)(cls)
        cls._carried = None
        if wire.carried:
            getters = [methodcaller(attr[:-2]) if attr.endswith("()") else attrgetter(attr)
                       for attr in wire.carried]
            cls._carried = lambda self: [get(self) for get in getters]
            cls.unpack = None

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

    def signable_bytes(self) -> bytes:
        """The canonical encoding: the wire tag, then the declared signed
        fields.  Computed once; the first call freezes the message."""
        state = self.__dict__
        cached = state.get("_signable")
        if cached is None:
            enc = XdrEncoder()
            self.pack(enc)
            cached = state["_signable"] = enc.getvalue()
            state["_frozen"] = True
            MESSAGE_STATS.add("message_encodes")
            MESSAGE_STATS.add("message_encode_bytes", len(cached))
        return cached

    def wire_size(self) -> int:
        """Bytes on the wire, by one rule: signed prefix + carried fields +
        authenticator + signature."""
        state = self.__dict__
        # Sized once per send or multicast: read the cached encoding directly.
        size = len(state.get("_signable") or self.signable_bytes())
        if self._carried is not None:
            carried = state.get("_carried_size")
            if carried is None:  # frozen with the signed fields, so summed once
                carried = state["_carried_size"] = _carried_size(self._carried())
            size += carried
        auth = state.get("auth")
        if auth is not None:
            size += auth.size_bytes()
        sig = state.get("sig")
        if sig:
            size += len(sig)
        return size


@message
class Request(Message):
    """Client operation submitted for ordered (or read-only) execution."""

    client_id: str
    reqid: int
    op: bytes
    read_only: bool = False
    auth: Optional[Authenticator] = None

    WIRE = Wire("REQUEST", {"client_id": STRING, "reqid": U64, "op": OPAQUE, "read_only": BOOL})

    def digest(self) -> bytes:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = digest(self.signable_bytes())
            self.__dict__["_digest"] = cached
        return cached


@message
class Reply(Message):
    """Replica's answer to one request."""

    view: int
    reqid: int
    client_id: str
    replica_id: str
    result: bytes
    read_only: bool = False
    auth: Optional[Authenticator] = None

    WIRE = Wire("REPLY", {"view": U64, "reqid": U64, "client_id": STRING, "replica_id": STRING,
                          "result": OPAQUE, "read_only": BOOL})


@message
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

    WIRE = Wire("SPEC-REPLY", {"view": U64, "reqid": U64, "client_id": STRING,
                               "replica_id": STRING, "result": OPAQUE})


@message
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

    WIRE = Wire("LEASE", {"view": U64, "epoch": U64, "seqno": U64, "primary_id": STRING})


@message
class LeaseRevoke(Message):
    """Revocation of every lease with epoch <= ``epoch``: multicast by the
    primary before it proposes a conflicting write, so no replica serves a
    leased read concurrently with an in-flight mutation."""

    view: int
    epoch: int
    primary_id: str
    auth: Optional[Authenticator] = None

    WIRE = Wire("LEASE-REVOKE", {"view": U64, "epoch": U64, "primary_id": STRING})


@message
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

    WIRE = Wire("BUSY", {"view": U64, "reqid": U64, "client_id": STRING, "replica_id": STRING,
                         "retry_after_micros": U64})


def batch_digest(requests: List[Request], nondet: bytes) -> bytes:
    """Digest binding a pre-prepare's request batch and non-det value."""
    return combine_digests([r.digest() for r in requests] + [digest(nondet)])


@message
class PrePrepare(Message):
    """Primary's ordering proposal for one batch at (view, seqno)."""

    view: int
    seqno: int
    requests: List[Request]
    nondet: bytes
    primary_id: str
    sig: bytes = b""

    WIRE = Wire("PRE-PREPARE", {"view": U64, "seqno": U64, "batch_digest()": DIGEST,
                                "primary_id": STRING}, carried=("requests", "nondet"))

    def batch_digest(self) -> bytes:
        cached = self.__dict__.get("_batch_digest")
        if cached is None:
            cached = batch_digest(self.requests, self.nondet)
            self.__dict__["_batch_digest"] = cached
            # The digest binds requests + nondet, so caching it freezes the
            # message exactly like caching the full encoding does.
            self.__dict__["_frozen"] = True
        return cached


@message
class Prepare(Message):
    """Backup's agreement to the primary's (view, seqno, digest) binding."""

    view: int
    seqno: int
    digest: bytes
    replica_id: str
    sig: bytes = b""

    WIRE = Wire("PREPARE", {"view": U64, "seqno": U64, "digest": DIGEST, "replica_id": STRING})


@message
class Commit(Message):
    """Second-phase vote: sender has a prepared certificate.

    Signed, not MAC'd, so that commit certificates can be relayed to a
    replica whose session keys have been refreshed by proactive recovery
    (MAC tags die with the old epoch; signatures do not)."""

    view: int
    seqno: int
    digest: bytes
    replica_id: str
    sig: bytes = b""

    WIRE = Wire("COMMIT", {"view": U64, "seqno": U64, "digest": DIGEST, "replica_id": STRING})


@message
class Checkpoint(Message):
    """Proof share that the sender's state at ``seqno`` has ``state_digest``."""

    seqno: int
    state_digest: bytes
    replica_id: str
    sig: bytes = b""

    WIRE = Wire("CHECKPOINT", {"seqno": U64, "state_digest": DIGEST, "replica_id": STRING})


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


@message
class ViewChange(Message):
    """Vote to move to ``new_view``; carries the sender's stable-checkpoint
    proof and every prepared certificate above it."""

    new_view: int
    stable_seqno: int
    checkpoint_proof: List[Checkpoint]
    prepared: List[PreparedProof]
    replica_id: str
    sig: bytes = b""

    WIRE = Wire("VIEW-CHANGE", {"new_view": U64, "stable_seqno": U64, "replica_id": STRING,
                                "checkpoint_proof": array(EMBEDDED),
                                "prepared_pre_prepares()": array(EMBEDDED)}, carried=("prepared",))

    def prepared_pre_prepares(self) -> List[PrePrepare]:
        """What the vote signs of each proof; its prepares are carried."""
        return [proof.pre_prepare for proof in self.prepared]


@message
class NewView(Message):
    """New primary's certificate for ``view``: 2f+1 view-changes plus the
    pre-prepares re-issued for in-flight sequence numbers."""

    view: int
    view_changes: List[ViewChange]
    pre_prepares: List[PrePrepare]
    primary_id: str
    sig: bytes = b""

    WIRE = Wire("NEW-VIEW", {"view": U64, "primary_id": STRING, "view_changes": array(EMBEDDED),
                             "pre_prepares": array(EMBEDDED)},
                carried=("view_changes", "pre_prepares"))


@message
class Status(Message):
    """Periodic gossip: lets peers retransmit what the sender is missing."""

    replica_id: str
    view: int
    stable_seqno: int
    last_executed: int
    in_view_change: bool = False
    auth: Optional[Authenticator] = None

    WIRE = Wire("STATUS", {"replica_id": STRING, "view": U64, "stable_seqno": U64,
                           "last_executed": U64, "in_view_change": BOOL})


@message
class CheckpointCert(Message):
    """2f+1 matching signed checkpoint messages: a transferable proof that
    the state at ``seqno`` has digest ``state_digest``."""

    seqno: int
    state_digest: bytes
    proof: List[Checkpoint] = field(default_factory=list)

    WIRE = Wire("CHECKPOINT-CERT", {"seqno": U64, "state_digest": DIGEST, "proof": array(EMBEDDED)},
                carried=("proof_signatures()",))

    def proof_signatures(self) -> List[bytes]:
        """Carried: the signed prefix embeds each checkpoint's prefix only."""
        return [checkpoint.sig for checkpoint in self.proof]


@message
class RetransmitCommitted(Message):
    """Catch-up help for a lagging replica: committed pre-prepares plus their
    prepare and commit certificates.  Every entry is signed, so the message
    needs no authenticator and survives the receiver's key-epoch refreshes."""

    replica_id: str
    entries: List[Tuple[PrePrepare, List[Prepare], List[Commit]]] = field(
        default_factory=list
    )

    WIRE = Wire("RETRANSMIT", {"replica_id": STRING,
                               "entries": array(tuple_of(EMBEDDED, UNSIGNED, UNSIGNED))},
                carried=("entries",))


# --- state transfer -----------------------------------------------------------


@message
class FetchRoot(Message):
    """Ask a donor for its stable checkpoint certificate (transfer session
    setup)."""

    requester: str
    min_seqno: int

    WIRE = Wire("FETCH-ROOT", {"requester": STRING, "min_seqno": U64})


@message
class TransferRoot(Message):
    """Donor's stable checkpoint certificate, anchoring a transfer session."""

    replica_id: str
    cert: CheckpointCert

    WIRE = Wire("TRANSFER-ROOT", {"replica_id": STRING, "cert": EMBEDDED}, carried=("cert",))


@message
class FetchMeta(Message):
    """Ask for partition-tree metadata (children of one interior node) at the
    newest checkpoint >= ``min_seqno``."""

    requester: str
    level: int
    index: int
    min_seqno: int

    WIRE = Wire("FETCH-META", {"requester": STRING, "level": U32, "index": U64, "min_seqno": U64})


@message
class MetaReply(Message):
    """Children ⟨lm, digest⟩ pairs for one partition at checkpoint ``seqno``."""

    replica_id: str
    seqno: int
    level: int
    index: int
    children: List[Tuple[int, bytes]]

    WIRE = Wire("META-REPLY", {"replica_id": STRING, "seqno": U64, "level": U32, "index": U64,
                               "children": array(tuple_of(U64, DIGEST))})


@message
class FetchObject(Message):
    """Ask for the value of abstract object ``index`` at checkpoint >= min_seqno."""

    requester: str
    index: int
    min_seqno: int

    WIRE = Wire("FETCH-OBJECT", {"requester": STRING, "index": U64, "min_seqno": U64})


@message
class ObjectReply(Message):
    """Value of abstract object ``index`` at checkpoint ``seqno``."""

    replica_id: str
    index: int
    seqno: int
    data: bytes

    WIRE = Wire("OBJECT-REPLY", {"replica_id": STRING, "index": U64, "seqno": U64, "data": OPAQUE})


# --- proactive recovery --------------------------------------------------------


@message
class Recovering(Message):
    """Announcement that a replica has begun a proactive recovery."""

    replica_id: str
    epoch: int

    WIRE = Wire("RECOVERING", {"replica_id": STRING, "epoch": U64})


@message
class Recovered(Message):
    """Announcement that a replica finished proactive recovery."""

    replica_id: str
    epoch: int

    WIRE = Wire("RECOVERED", {"replica_id": STRING, "epoch": U64})


# --- cross-shard transactions (client-coordinated 2PC) -------------------------


@message
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

    WIRE = Wire("TXN-PREPARE", {"txid": STRING, "writes": array(tuple_of(U32, OPAQUE))})


@message
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

    WIRE = Wire("TXN-DECIDE", {"txid": STRING, "commit": BOOL,
                               "votes": array(tuple_of(U32, array(STRING)))})

# --- fused-backup tier (XOR parity over abstract state) -----------------------


@message
class ParityUpdate(Message):
    """Incremental parity feed from one shard replica to a fused node.

    Sent when checkpoint ``seqno`` becomes stable: ``deltas`` holds, per
    modified abstract leaf, the XOR of the leaf's fixed-width fusion cells at
    the previous stable checkpoint ``base_seqno`` and at ``seqno``.  The parity
    is an XOR, so the fused node folds the delta straight into its parity
    block.  ``cert`` is the stable-checkpoint certificate for
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

    WIRE = Wire("PARITY-UPDATE", {"shard": U32, "base_seqno": U64, "seqno": U64, "slot_width": U32,
                                  "num_leaves": U32, "deltas": array(tuple_of(U32, OPAQUE))},
                carried=("cert",))


@message
class ParityAck(Message):
    """Fused node's acknowledgement that shard ``shard`` is covered through
    checkpoint ``seqno`` — the feeding replica may release its GC pin on the
    previous checkpoint once the fused node has acked past it."""

    parity_id: str
    shard: int
    seqno: int
    auth: Optional[Authenticator] = None

    WIRE = Wire("PARITY-ACK", {"parity_id": STRING, "shard": U32, "seqno": U64})


@message
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

    WIRE = Wire("FUSION-FETCH", {"parity_id": STRING, "shard": U32, "seqno": U64,
                                 "slot_width": U32})


@message
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

    WIRE = Wire("FUSION-BLOCK", {"replica_id": STRING, "shard": U32, "seqno": U64,
                                 "slot_width": U32, "num_leaves": U32, "block": OPAQUE},
                carried=("cert",))
