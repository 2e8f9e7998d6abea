"""BFT replica: the three-phase core.

Implements PBFT ordering (pre-prepare / prepare / commit) with request
batching, at-most-once in-order execution per client, periodic checkpoints
with 2f+1 certificates, log garbage collection and the request timer that
blames a silent primary.  Every other sub-protocol is a manager built in
``Replica.__init__`` that owns its state and its messages and reaches the
core through ``self.replica`` (docs/protocol.md has the module map): view
changes, state transfer, the fast path, the overload policy, catch-up.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bft.catchup import CatchUpManager
from repro.bft.config import BFTConfig
from repro.bft.fastpath import FastPathManager
from repro.bft.log import MessageLog, Slot
from repro.bft.messages import (
    Checkpoint,
    CheckpointCert,
    Commit,
    FetchMeta,
    FetchObject,
    FetchRoot,
    FusionFetch,
    Lease,
    LeaseRevoke,
    MetaReply,
    Message,
    NewView,
    ObjectReply,
    ParityAck,
    Prepare,
    PrePrepare,
    Recovered,
    Recovering,
    Reply,
    Request,
    RetransmitCommitted,
    SpecReply,
    Status,
    TransferRoot,
    ViewChange,
)
from repro.bft.overload import AdmissionQueue, OverloadPolicy
from repro.bft.service import StateMachine
from repro.bft.statetransfer import StateTransferManager
from repro.bft.viewchange import ViewChangeManager
from repro.crypto.auth import KeyTable, MacVerificationError
from repro.crypto.sign import SignatureScheme
from repro.net.network import Network
from repro.net.node import Node
from repro.net.simulator import EventHandle, Simulator
from repro.util.errors import FaultInjected
from repro.util.stats import Counters
from repro.util.trace import Tracer, emit


def verify_checkpoint_cert(
    cert: CheckpointCert, config: BFTConfig, sigs: SignatureScheme, service: StateMachine
) -> bool:
    """Is ``cert`` proof that a quorum checkpointed its digest at its seqno?
    The one implementation: replicas and the fused node both call it."""
    if cert.seqno == 0:
        # Genesis needs no proof: its digest is a pure function of the
        # abstract specification, known to every replica a priori.
        return cert.state_digest == service.genesis_root_digest()
    senders = set()
    for checkpoint in cert.proof:
        if checkpoint.seqno != cert.seqno:
            return False
        if checkpoint.state_digest != cert.state_digest:
            return False
        if checkpoint.replica_id not in config.replica_ids:
            return False
        if not sigs.verify(
            checkpoint.replica_id, checkpoint.signable_bytes(), checkpoint.sig
        ):
            return False
        senders.add(checkpoint.replica_id)
    return len(senders) >= config.quorum


class Replica(Node):
    """One BFT replica, driving a deterministic :class:`StateMachine`."""

    def __init__(
        self,
        replica_id: str,
        sim: Simulator,
        network: Network,
        config: BFTConfig,
        service: StateMachine,
        keys: KeyTable,
        sigs: SignatureScheme,
        takeover: bool = False,
    ) -> None:
        super().__init__(replica_id, sim, network, takeover=takeover)
        if replica_id not in config.replica_ids:
            raise ValueError(f"{replica_id!r} not in config.replica_ids")
        self.config = config
        self.service = service
        self.keys = keys
        self.sigs = sigs
        self.signer = sigs.keygen(replica_id)
        self.counters = Counters()

        # Protocol state.
        self.view = 0
        self.next_seqno = 0  # primary's last assigned seqno
        self.last_executed = 0
        self.stable_seqno = 0
        self.stable_cert: Optional[CheckpointCert] = None
        self.log = MessageLog(config)
        self.committed: Dict[int, PrePrepare] = {}
        self.checkpoint_votes: Dict[int, Dict[str, Checkpoint]] = {}
        self.own_checkpoints: Dict[int, Checkpoint] = {}
        # Bounded admission queue: client requests only, deterministic
        # shedding (per-client cap, fair drop-newest, TTL expiry) — protocol
        # messages never pass through it.  See repro.bft.overload.
        self.pending = AdmissionQueue(
            config.admission_capacity,
            config.admission_per_client,
            config.pending_ttl,
        )
        self.in_flight: set = set()  # (client, reqid) already in a pre-prepare
        self.recovering = False
        # The one checkpoint subscriber: the host-resident FusionFeeder of an
        # attached fused-backup tier (survives reboots; relinked by
        # ReplicaHost).  See repro.bft.fusion.
        self.fusion_feeder = None
        self.on_recovered = None  # hook set by ReplicaHost for WoV accounting
        self.on_crashed = None  # hook set by the fault-containment supervisor
        self.crash_reason = ""
        self.crash_seqno = 0  # ordering position being executed when we died
        self.tracer: Tracer = None  # type: ignore[assignment]  # optional, set by the deployment

        # The genesis state is an implicitly certified checkpoint: label it 0
        # so this replica can serve it to recovering peers before the first
        # real checkpoint stabilizes.  A replica rebuilt from disk whose
        # state is no longer pristine must not claim to hold genesis.
        if not service.manager.checkpoint_seqnos():
            if service.current_node(0, 0)[1] == service.genesis_root_digest():
                service.manager.take_checkpoint(0)

        self._request_timer: Optional[EventHandle] = None

        # Managers, one per sub-protocol.  Catch-up goes last: it arms the
        # only timer a new replica starts with.
        self.view_changes = ViewChangeManager(self)
        self.transfer = StateTransferManager(self)
        self.fast_path = FastPathManager(self)
        self.overload = OverloadPolicy(self)
        self.catch_up = CatchUpManager(self)

    # -- identity helpers ---------------------------------------------------------

    @property
    def replica_id(self) -> str:
        return self.node_id

    def is_primary(self) -> bool:
        return self.config.primary(self.view) == self.node_id

    def other_replicas(self) -> List[str]:
        return [r for r in self.config.replica_ids if r != self.node_id]

    def in_window(self, seqno: int) -> bool:
        return self.stable_seqno < seqno <= self.stable_seqno + self.config.log_window

    # -- authenticated send helpers --------------------------------------------------

    def auth_multicast(self, message: Message) -> None:
        """Multicast to every replica, authenticated once: a signed message
        by its signature alone, any other by a MAC vector."""
        if not hasattr(message, "sig"):
            # signable_bytes() caches on first call, so the whole MAC vector
            # and every per-recipient send below reuse one serialization.
            message.auth = self.keys.make_authenticator(  # type: ignore[attr-defined]
                self.node_id, self.config.replica_ids, message.signable_bytes()
            )
        self.counters.add("auth_broadcasts")
        self.multicast(self.config.replica_ids, message)  # the network skips the sender

    def auth_send(self, dst: str, message: Message) -> None:
        message.auth = self.keys.make_authenticator(  # type: ignore[attr-defined]
            self.node_id, [dst], message.signable_bytes()
        )
        self.send(dst, message)

    def check_auth(self, message: Message, expected_sender: Optional[str] = None) -> bool:
        """Verify the MAC authenticator; when ``expected_sender`` is given,
        also bind the key owner to the identity the message claims (a client
        must not be able to wrap someone else's request in its own MACs)."""
        auth = getattr(message, "auth", None)
        if auth is None:
            self.counters.add("auth_missing")
            return False
        if expected_sender is not None and auth.sender != expected_sender:
            self.counters.add("auth_wrong_principal")
            return False
        try:
            self.keys.check_authenticator(auth, self.node_id, message.signable_bytes())
        except MacVerificationError:
            self.counters.add("auth_failed")
            return False
        return True

    # -- message dispatch ---------------------------------------------------------------

    def on_message(self, message: Message, src: str) -> None:
        if src == self.config.primary(self.view):
            self.overload.heard_primary()
        if isinstance(message, Request):
            self.on_request(message, src)
        elif isinstance(message, PrePrepare):
            self.on_pre_prepare(message, src)
        elif isinstance(message, Prepare):
            self.on_prepare(message, src)
        elif isinstance(message, Commit):
            self.on_commit(message, src)
        elif isinstance(message, Checkpoint):
            self.on_checkpoint(message, src)
        elif isinstance(message, CheckpointCert):
            self.on_checkpoint_cert(message, src)
        elif isinstance(message, (Status, RetransmitCommitted)):
            self.catch_up.on_message(message, src)
        elif isinstance(message, (Lease, LeaseRevoke)):
            self.fast_path.on_message(message, src)
        elif isinstance(message, (ViewChange, NewView)):
            self.view_changes.on_message(message, src)
        elif isinstance(
            message,
            (FetchRoot, FetchMeta, FetchObject, TransferRoot, MetaReply, ObjectReply),
        ):
            self.transfer.on_message(message, src)
        elif isinstance(message, (Recovering, Recovered)):
            self.counters.add(f"peer_{type(message).__name__.lower()}")
        elif isinstance(message, (FusionFetch, ParityAck)):
            if self.fusion_feeder is not None:
                self.fusion_feeder.on_message(self, message, src)
            elif self.check_auth(message, expected_sender=src):
                # No fused tier attached: nobody here speaks this protocol.
                fetch = isinstance(message, FusionFetch)
                self.counters.add("fusion_fetches_refused" if fetch else "fusion_acks_ignored")
        else:
            self.counters.add("unknown_message")

    # -- client requests ------------------------------------------------------------------

    def on_request(self, request: Request, src: str) -> None:
        if not self.check_auth(request, expected_sender=request.client_id):
            return
        key = (request.client_id, request.reqid)
        recorded = self.service.manager.last_recorded(request.client_id)
        if recorded is not None and request.reqid <= recorded[0]:
            if request.reqid == recorded[0]:
                # Retransmission of the latest executed request: resend the
                # recorded reply (at-most-once semantics).  A reply recorded
                # by an open speculation frame is NOT committed — claiming so
                # would let a client accept f+1 "committed" replies for a
                # batch that only ever prepared, which is unsafe.
                tentative = key in self.fast_path.tentative_replies
                self.send_reply(request, recorded[1], tentative=tentative)
                if tentative:
                    # Executed but not committed, and the client is still
                    # asking: go on timing the primary until the frame
                    # promotes.  Without this a batch left one commit short
                    # (one replica down, another alone in a view change)
                    # stays that way for good — nobody else ever times out.
                    self.in_flight.add(key)
                    self._arm_request_timer()
            self.counters.add("duplicate_requests")
            return
        if request.read_only:
            self._execute_read_only(request)
            return
        if key in self.in_flight:
            # Already assigned to a sequence number; the reply will come.
            return
        if not self.overload.admit(request):
            return
        self._arm_request_timer()
        if self.is_primary():
            self.try_send_pre_prepare()

    def send_reply(
        self, request: Request, result: bytes, tentative: bool = False, read_only: bool = False
    ) -> None:
        """The one place an answer to a client is built: a committed
        :class:`Reply`, or a :class:`SpecReply` while the execution that
        produced ``result`` is still speculative."""
        fields = dict(
            view=self.view,
            reqid=request.reqid,
            client_id=request.client_id,
            replica_id=self.node_id,
            result=result,
        )
        if tentative:
            self.auth_send(request.client_id, SpecReply(**fields))
        else:
            self.auth_send(request.client_id, Reply(read_only=read_only, **fields))

    def crash_self(self, reason: str) -> None:
        """The wrapped implementation died (aging, deterministic bug): this
        replica is now a crashed replica until rebooted.

        Records the crash reason and the ordering position being executed
        (``last_executed + 1``) so the fault-containment supervisor can
        classify crash loops, then notifies it via the ``on_crashed`` hook."""
        self.crash_reason = reason
        self.crash_seqno = self.last_executed + 1
        self.counters.add("implementation_crashes")
        emit(
            self.tracer,
            self.node_id,
            "implementation_crash",
            reason=reason,
            seqno=self.crash_seqno,
        )
        self.stop()
        self.network.set_down(self.node_id, True)
        if self.on_crashed is not None:
            self.on_crashed(reason, self.crash_seqno)

    def _execute_read_only(self, request: Request) -> None:
        if self.recovering:
            return
        if self.view_changes.in_view_change or not self.fast_path.admit_read():
            # Not answerable at this instant: the fast path holds it and
            # answers when the view is installed, the frame promotes or the
            # lease arrives.
            self.fast_path.park_read(request)
        else:
            self.answer_read_only(request)

    def answer_read_only(self, request: Request) -> None:
        """Run an admitted read-only request against committed state."""
        try:
            result = self.service.execute(
                request.op, request.client_id, b"", read_only=True
            )
        except FaultInjected as fault:
            self.crash_self(str(fault))
            return
        self.counters.add("read_only_executed")
        self.send_reply(request, result, read_only=True)

    # -- primary: batching and pre-prepare ---------------------------------------------------

    def try_send_pre_prepare(self) -> None:
        if (
            self._stopped
            or not self.is_primary()
            or self.view_changes.in_view_change
            or self.recovering
        ):
            return
        self.fast_path.revoke_for_write()
        while self.pending:
            next_seqno = self.next_seqno + 1
            if not self.in_window(next_seqno):
                return
            if next_seqno - self.last_executed > self.config.outstanding_window:
                return  # pipeline full; later arrivals will batch up
            if self._forming_instances() >= self.config.max_outstanding:
                return  # enough instances short of prepared; arrivals batch up
            batch: List[Request] = []
            for key in list(self.pending):
                if len(batch) >= self.config.batch_max:
                    break
                batch.append(self.pending.pop(key))
            if not batch:
                return
            nondet = self.service.propose_nondet()
            pre_prepare = PrePrepare(
                view=self.view,
                seqno=next_seqno,
                requests=batch,
                nondet=nondet,
                primary_id=self.node_id,
            )
            pre_prepare.sig = self.signer.sign(pre_prepare.signable_bytes())
            self.next_seqno = next_seqno
            slot = self.log.slot(self.view, next_seqno)
            slot.pre_prepare = pre_prepare
            for request in batch:
                self.in_flight.add((request.client_id, request.reqid))
            self.counters.add("pre_prepares_sent")
            self.counters.add("batched_requests", len(batch))
            self.auth_multicast(pre_prepare)
            self._maybe_commit(slot)

    def _forming_instances(self) -> int:
        """The primary's unexecuted instances still short of their prepared
        certificate: pre-prepared in this view, own COMMIT not yet sent.  A
        scan of at most ``outstanding_window`` slots."""
        view, get = self.view, self.log.get
        forming = 0
        for seqno in range(self.last_executed + 1, self.next_seqno + 1):
            slot = get(view, seqno)
            if slot is not None and slot.pre_prepare is not None and not slot.sent_commit:
                forming += 1
        return forming

    # -- backups: three-phase ordering ----------------------------------------------------------

    def on_pre_prepare(self, pre_prepare: PrePrepare, src: str) -> None:
        if pre_prepare.view != self.view or self.view_changes.in_view_change:
            self.counters.add("pre_prepare_wrong_view")
            return
        if pre_prepare.primary_id != self.config.primary(pre_prepare.view):
            self.counters.add("pre_prepare_wrong_primary")
            return
        if src != pre_prepare.primary_id:
            self.counters.add("pre_prepare_relayed")
            return
        if not self.in_window(pre_prepare.seqno):
            self.counters.add("pre_prepare_out_of_window")
            return
        if not self.sigs.verify(
            pre_prepare.primary_id, pre_prepare.signable_bytes(), pre_prepare.sig
        ):
            self.counters.add("pre_prepare_bad_sig")
            return
        for request in pre_prepare.requests:
            if request.read_only:
                self.counters.add("pre_prepare_readonly_request")
                return
            # A Byzantine primary must not be able to fabricate requests on
            # behalf of clients: every batched request carries the client's
            # own authenticator, verified here by each backup.
            if not self.check_auth(request, expected_sender=request.client_id):
                self.counters.add("pre_prepare_bad_request")
                return
        if not self.service.check_nondet(pre_prepare.nondet):
            self.counters.add("pre_prepare_bad_nondet")
            return
        self.accept_pre_prepare(pre_prepare)

    def accept_pre_prepare(self, pre_prepare: PrePrepare) -> None:
        """Log a valid pre-prepare and answer it with a prepare (backups)."""
        slot = self.log.slot(pre_prepare.view, pre_prepare.seqno)
        if slot.pre_prepare is not None:
            if slot.pre_prepare.batch_digest() != pre_prepare.batch_digest():
                self.counters.add("conflicting_pre_prepare")
            return
        slot.pre_prepare = pre_prepare
        self.fast_path.on_write_proposed(pre_prepare)
        # Remove batched requests from our pending queue; they are in flight.
        # Requests we already executed (e.g. a new-view O re-proposing work
        # from before we were partitioned away) are *not* in flight for us:
        # their ordering instance may never complete again, and a stale
        # tracking entry would keep our request timer firing forever.
        for request in pre_prepare.requests:
            key = (request.client_id, request.reqid)
            self.pending.pop(key, None)
            recorded = self.service.manager.last_recorded(request.client_id)
            if recorded is not None and request.reqid <= recorded[0]:
                continue
            self.in_flight.add(key)
        if not slot.sent_prepare and pre_prepare.primary_id != self.node_id:
            prepare = Prepare(
                view=pre_prepare.view,
                seqno=pre_prepare.seqno,
                digest=pre_prepare.batch_digest(),
                replica_id=self.node_id,
            )
            prepare.sig = self.signer.sign(prepare.signable_bytes())
            slot.prepares[self.node_id] = prepare
            slot.sent_prepare = True
            self.counters.add("prepares_sent")
            self.auth_multicast(prepare)
        self._maybe_commit(slot)

    def on_prepare(self, prepare: Prepare, src: str) -> None:
        if src != prepare.replica_id or prepare.replica_id not in self.config.replica_ids:
            return
        if prepare.replica_id == self.config.primary(prepare.view):
            self.counters.add("prepare_from_primary")
            return
        if (
            self.view_changes.in_view_change
            and prepare.view < self.view_changes.pending_view
        ):
            # OSDI'99 section 4.4: once we sent VIEW-CHANGE for v' our
            # prepared set for older views is frozen as reported — letting a
            # late prepare grow it now would create certificates the
            # in-flight view-change messages do not carry, and the new
            # view's O computation could then silently drop a batch that
            # goes on to commit (prepares for views >= v' are still
            # recorded: they belong to the view being installed).
            self.counters.add("prepare_during_view_change")
            return
        if not self.in_window(prepare.seqno):
            return
        if not self.sigs.verify(prepare.replica_id, prepare.signable_bytes(), prepare.sig):
            self.counters.add("prepare_bad_sig")
            return
        slot = self.log.slot(prepare.view, prepare.seqno)
        slot.prepares.setdefault(prepare.replica_id, prepare)
        self._maybe_commit(slot)

    def _maybe_commit(self, slot: Slot) -> None:
        if slot.view != self.view or slot.sent_commit:
            return
        if self.view_changes.in_view_change:
            # No commits for the old view after our VIEW-CHANGE went out:
            # the vote would be invisible to the view change in progress.
            return
        if not self.log.prepared(slot, self.node_id):
            return
        commit = Commit(
            view=slot.view,
            seqno=slot.seqno,
            digest=slot.digest() or b"",
            replica_id=self.node_id,
        )
        commit.sig = self.signer.sign(commit.signable_bytes())
        slot.commits[self.node_id] = commit
        slot.sent_commit = True
        self.counters.add("commits_sent")
        self.auth_multicast(commit)
        self._maybe_execute(slot)
        self.fast_path.speculate()
        if self.is_primary():
            # An instance left the forming bound: what queued behind it goes
            # out now, as one batch.
            self.try_send_pre_prepare()

    def on_commit(self, commit: Commit, src: str) -> None:
        if src != commit.replica_id or commit.replica_id not in self.config.replica_ids:
            return
        if (
            self.view_changes.in_view_change
            and commit.view < self.view_changes.pending_view
        ):
            # Same freeze as prepares: old-view commits must not complete
            # certificates behind the back of an in-progress view change.
            self.counters.add("commit_during_view_change")
            return
        if not self.in_window(commit.seqno):
            return
        if not self.sigs.verify(commit.replica_id, commit.signable_bytes(), commit.sig):
            self.counters.add("commit_bad_sig")
            return
        slot = self.log.slot(commit.view, commit.seqno)
        slot.commits.setdefault(commit.replica_id, commit)
        self._maybe_execute(slot)

    def _maybe_execute(self, slot: Slot) -> None:
        if slot.executed or slot.pre_prepare is None:
            return
        if not self.log.committed_local(slot, self.node_id):
            return
        slot.executed = True
        self.committed[slot.seqno] = slot.pre_prepare
        self.counters.add("committed_batches")
        if slot.seqno <= self.last_executed:
            # Re-proposal of an already-executed batch (view change / state
            # transfer overlap): it will never run through _execute_batch, so
            # release its request-tracking entries here.
            self._clear_request_tracking(slot.pre_prepare)
            self._rearm_request_timer()
        self.execute_ready()

    def _clear_request_tracking(self, pre_prepare: PrePrepare) -> None:
        for request in pre_prepare.requests:
            key = (request.client_id, request.reqid)
            self.pending.pop(key, None)
            self.in_flight.discard(key)

    # -- in-order execution ------------------------------------------------------------------------

    def execute_ready(self) -> None:
        """Execute committed batches in sequence-number order, promoting
        batches the fast path already ran tentatively.  A service that dies
        (``crash_self``) stops the loop where it died: the half-run batch does
        not count executed, and nothing after it runs."""
        while not self._stopped and (self.last_executed + 1) in self.committed:
            seqno = self.last_executed + 1
            pre_prepare = self.committed[seqno]
            if not self.fast_path.promote(seqno, pre_prepare):
                self._execute_batch(seqno, pre_prepare)
                if self._stopped:
                    return
            self.last_executed = seqno
            if self.next_seqno < seqno:
                # Replayed past our own last assignment (a primary rebooted
                # in place, caught up by retransmission): never propose a
                # seqno that has already executed.
                self.next_seqno = seqno
            self.overload.progressed()
            if seqno % self.config.checkpoint_interval == 0:
                self._take_checkpoint(seqno)
        if self._stopped:
            return
        self._rearm_request_timer()
        self.fast_path.speculate()
        if self.is_primary():
            self.try_send_pre_prepare()
            self.fast_path.maybe_grant_lease()
        self.fast_path.serve_parked()

    def _execute_batch(self, seqno: int, pre_prepare: PrePrepare, reply=None) -> None:
        """Run one batch against the service.  ``reply(request, result)``
        answers each executed request: committed replies by default, the
        fast path's tentative ones while it speculates."""
        reply = reply or self.send_reply
        for request in pre_prepare.requests:
            key = (request.client_id, request.reqid)
            recorded = self.service.manager.last_recorded(request.client_id)
            if recorded is not None and request.reqid <= recorded[0]:
                self.counters.add("skipped_duplicates")
                self._purge_superseded(request.client_id, request.reqid)
                self.in_flight.discard(key)
                continue
            try:
                result = self.service.execute(
                    request.op, request.client_id, pre_prepare.nondet, read_only=False
                )
            except FaultInjected as fault:
                self.crash_self(str(fault))
                return
            self.counters.add("requests_executed")
            self.service.record_reply(request.client_id, request.reqid, result)
            self._purge_superseded(request.client_id, request.reqid)
            self.in_flight.discard(key)
            reply(request, result)

    def _purge_superseded(self, client_id: str, reqid: int) -> None:
        """Executing reqid ``r`` for a client makes every queued reqid <= r
        unexecutable (at-most-once): drop them so a fully caught-up replica's
        request timer is not pinned by requests that can never commit."""
        stale = self.pending.purge_superseded(client_id, reqid)
        if len(stale) > 1:
            # The executed key itself is expected; extra drops are accounted.
            self.counters.add("pending_superseded", len(stale) - 1)

    # -- checkpoints -----------------------------------------------------------------------------------

    def _take_checkpoint(self, seqno: int) -> None:
        try:
            state_digest = self.service.manager.take_checkpoint(seqno)
        except FaultInjected as fault:
            self.crash_self(str(fault))
            return
        checkpoint = Checkpoint(
            seqno=seqno, state_digest=state_digest, replica_id=self.node_id
        )
        checkpoint.sig = self.signer.sign(checkpoint.signable_bytes())
        self.own_checkpoints[seqno] = checkpoint
        self.counters.add("checkpoints_sent")
        self._record_checkpoint_vote(checkpoint)
        self.auth_multicast(checkpoint)
        self.transfer.reached(seqno)

    def on_checkpoint(self, checkpoint: Checkpoint, src: str) -> None:
        if src != checkpoint.replica_id or checkpoint.replica_id not in self.config.replica_ids:
            return
        if checkpoint.seqno <= self.stable_seqno:
            return
        if not self.sigs.verify(
            checkpoint.replica_id, checkpoint.signable_bytes(), checkpoint.sig
        ):
            self.counters.add("checkpoint_bad_sig")
            return
        self._record_checkpoint_vote(checkpoint)

    def _record_checkpoint_vote(self, checkpoint: Checkpoint) -> None:
        votes = self.checkpoint_votes.setdefault(checkpoint.seqno, {})
        votes[checkpoint.replica_id] = checkpoint
        matching = [
            c for c in votes.values() if c.state_digest == checkpoint.state_digest
        ]
        if len(matching) >= self.config.quorum:
            cert = CheckpointCert(
                seqno=checkpoint.seqno,
                state_digest=checkpoint.state_digest,
                proof=sorted(matching, key=lambda c: c.replica_id)[: self.config.quorum],
            )
            self._mark_stable(cert)

    def _mark_stable(self, cert: CheckpointCert) -> None:
        """Advance the stable checkpoint and garbage-collect."""
        if cert.seqno <= self.stable_seqno:
            return
        self.stable_cert = cert
        self.stable_seqno = cert.seqno
        self.log.collect_below(cert.seqno)
        for seqno in [s for s in self.committed if s <= cert.seqno]:
            del self.committed[seqno]
        for seqno in [s for s in self.checkpoint_votes if s <= cert.seqno]:
            del self.checkpoint_votes[seqno]
        for seqno in [s for s in self.own_checkpoints if s < cert.seqno]:
            del self.own_checkpoints[seqno]
        if self.last_executed >= cert.seqno:
            floor = cert.seqno
            if self.fusion_feeder is not None:
                # Diff against the previous stable checkpoint (still live —
                # we have not discarded yet) and pin garbage collection at
                # the oldest checkpoint a fused node's parity stands at, so
                # full-block resyncs and reconstruction fetches always find
                # their target.
                self.fusion_feeder.on_stable(self, cert)
                floor = min(floor, self.fusion_feeder.gc_floor(cert.seqno))
            self.service.manager.discard_checkpoints_below(floor)
        self.counters.add("stable_checkpoints")
        emit(self.tracer, self.node_id, "checkpoint_stable", seqno=cert.seqno)
        # If the quorum certified state we never executed, we are behind:
        # the ordering messages for it may already be garbage-collected.
        if self.last_executed < cert.seqno:
            self.fast_path.rollback("state-transfer")
            self.transfer.start(cert)
        if self.is_primary():
            self.try_send_pre_prepare()

    def on_checkpoint_cert(self, cert: CheckpointCert, src: str) -> None:
        if not self._verify_checkpoint_cert(cert):
            self.counters.add("bad_checkpoint_cert")
            return
        self._mark_stable(cert)

    def _verify_checkpoint_cert(self, cert: CheckpointCert) -> bool:
        return verify_checkpoint_cert(cert, self.config, self.sigs, self.service)

    def servable_cert(self) -> Optional[CheckpointCert]:
        """The certificate of the newest checkpoint a peer may fetch from us:
        our stable one once we have executed up to it, else — until a first
        checkpoint stabilizes — the implicit genesis certificate."""
        if self.stable_cert is not None:
            return self.stable_cert if self.last_executed >= self.stable_seqno else None
        if 0 in self.service.manager.checkpoint_seqnos():
            return CheckpointCert(
                seqno=0, state_digest=self.service.genesis_root_digest(), proof=[]
            )
        return None

    # -- liveness timers ---------------------------------------------------------------------------------

    def _arm_request_timer(self) -> None:
        if self._request_timer is not None:
            return
        if not self.pending and not self.in_flight:
            return
        if self.view_changes.in_view_change:
            return
        self._request_timer = self.set_timer(
            self.view_changes.current_timeout(), self._request_timer_fired
        )

    def _rearm_request_timer(self) -> None:
        # A superseded timer is cancelled, not left in the simulator's heap
        # to fire as a no-op a quarter of a virtual second later.
        if self._request_timer is not None:
            self._request_timer.cancel()
            self._request_timer = None
        self._arm_request_timer()

    def _request_timer_fired(self) -> None:
        self._request_timer = None
        expired = self.pending.expire_stale(self.now())
        if expired:
            # Abandoned requests (client cancelled, or satisfied via another
            # replica's path) must not pin the timer into a view change.
            self.counters.add("pending_expired", len(expired))
        stalled = (
            bool(self.pending or self.in_flight)
            and not self.view_changes.in_view_change
            and not self.recovering
        )
        if self.overload.keep_waiting(stalled):
            self._arm_request_timer()
        else:
            self.counters.add("request_timeouts")
            self.view_changes.start(self.view + 1)

    # -- hooks used by managers ------------------------------------------------------------------------------------

    def after_state_transfer(self, seqno: int, cert: CheckpointCert) -> None:
        """Called by the transfer manager once fetched state is installed."""
        # Speculation cannot survive an installed checkpoint: frames were
        # rolled back before the transfer began, and install_fetched resets
        # the service wholesale — drop any stale replica-side bookkeeping.
        self.fast_path.discard()
        self.last_executed = max(self.last_executed, seqno)
        self.next_seqno = max(self.next_seqno, seqno)
        self.overload.progressed()
        # Requests ordered below the transferred checkpoint were executed by
        # the quorum; our tracking entries for them are stale.  Any client
        # that still wants a reply will retransmit.
        self.in_flight.clear()
        self.pending.clear()
        self._rearm_request_timer()
        self._mark_stable(cert)
        self.service.manager.discard_checkpoints_below(seqno)
        if self.recovering:
            self.finish_recovery()
        self.execute_ready()

    def finish_recovery(self) -> None:
        self.recovering = False
        self.counters.add("recoveries_completed")
        emit(self.tracer, self.node_id, "recovery_completed", seqno=self.last_executed)
        self.multicast(self.other_replicas(), Recovered(replica_id=self.node_id, epoch=0))
        if self.on_recovered is not None:
            self.on_recovered()
        self._arm_request_timer()
        if self.is_primary():
            self.try_send_pre_prepare()
