"""Hierarchical state transfer, both sides (OSDI'00).

A transfer session is anchored by a checkpoint certificate (2f+1 signed
checkpoint messages), which gives a *verified* root digest.  The fetcher
walks down the partition tree: for each interior node whose ⟨lm, d⟩ differs
from its local value it requests the children metadata (verified against the
parent digest, so a Byzantine donor cannot lie); at the leaves it fetches
only the objects whose digests differ (verified against the leaf digest).
Up-to-date leaves whose lm metadata is stale (e.g. after a reboot reset it)
adopt the donor's verified lm without fetching the value.

When every missing object has arrived, the whole set is installed atomically
through the service's ``put_objs`` upcall — the paper's guarantee that
``put_objs`` always sees a consistent checkpoint value.  ``install`` is that
step and the only way certified state gets into a replica; the fused tier
hands it the objects it rebuilt from parity instead of fetching them.  A
full session ends there, or when execution takes its anchor's checkpoint
first (``reached``): no checkpoint is skipped for a session, so every correct
replica stamps a leaf with the same lm.

There is one session at a time: the scrubber's targeted repair
(``begin_scrub``) is the same session started at the leaves it names, ending
in an in-place ``repair_objects`` instead of an install.

The donor side is stateless: it answers each fetch out of the checkpoints the
service still holds, and stays silent about anything it cannot serve (the
fetcher's retry timer moves on to the next donor).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.bft.messages import (
    CheckpointCert,
    FetchMeta,
    FetchObject,
    FetchRoot,
    MetaReply,
    ObjectReply,
    TransferRoot,
)
from repro.base.partition import verify_children
from repro.crypto.digest import digest
from repro.util.errors import FaultInjected
from repro.util.trace import emit

if TYPE_CHECKING:
    from repro.bft.replica import Replica

_RETRY = 0.08  # virtual seconds before re-asking a different donor


class StateTransferManager:
    """Per-replica fetch state machine, and the donor that answers it."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica
        # One fetch session at a time, anchored at ``session``.  ``active``: a
        # full transfer is fetching toward the certificate (the fast path
        # stands aside).  ``scrub_active``: the same session started at the
        # leaves — a targeted partial transfer that repairs corrupt objects in
        # place, no reboot, no rollback.
        self.active = False
        self.scrub_active = False
        self.session: Optional[CheckpointCert] = None
        # Outstanding queries, keyed by what they fetch: ("meta", level,
        # index) -> expected digest, ("obj", index) -> (expected lm, digest).
        self._pending: Dict[tuple, object] = {}
        self._fetched: Dict[int, Tuple[bytes, int]] = {}
        self._donor_cursor = 0
        # The retry of the newest root-fetch chain; None: no root is awaited.
        self._awaiting_root: Optional[Callable[[], None]] = None
        self._retries: Dict[object, int] = {}
        self._max_retries = 6

    # -- session control --------------------------------------------------------

    def begin_from_root(self, min_seqno: int = 1) -> None:
        """Ask a donor for its stable checkpoint certificate, then transfer.

        Used by proactive recovery and by a lagging replica that holds no
        certificate.  A call stops the retry chain of any earlier call."""
        replica = self.replica
        replica.counters.add("fetch_root_sent")
        replica.send(self._next_donor(), FetchRoot(requester=replica.node_id, min_seqno=min_seqno))

        def retry() -> None:
            if self._awaiting_root is retry and not self.active:
                self.begin_from_root(min_seqno)

        self._awaiting_root = retry
        replica.set_timer(_RETRY * 3, retry)

    def start(self, cert: CheckpointCert) -> None:
        """Start (or upgrade) a transfer session toward ``cert``.  The
        certificate is verified before any branch acts on it: a forged
        anchor is turned away here, whoever sent it, and everything below
        compares state against a verified root digest.  The one return
        ahead of the check keeps a session already at or past ``cert`` and
        reads nothing of ``cert`` but its seqno."""
        replica = self.replica
        if self.active and self.session.seqno >= cert.seqno:
            return
        if not replica._verify_checkpoint_cert(cert):
            replica.counters.add("bad_checkpoint_cert")
            return
        self._awaiting_root = None
        if replica.last_executed >= cert.seqno:
            if replica.recovering and not self.active:
                self._verify_current_and_finish(cert)
            return
        if self.scrub_active:
            # A full transfer supersedes any in-flight scrub.
            replica.counters.add("scrub_sessions_aborted")
        self._open(cert)
        emit(replica.tracer, replica.node_id, "state_transfer_started", seqno=cert.seqno)

        _lm, current_root = replica.service.current_node(0, 0)
        if current_root == cert.state_digest:
            # State already matches the certified checkpoint; just advance.
            self._complete()
            return
        self._query(("meta", 0, 0), cert.state_digest)

    def _open(self, cert: CheckpointCert, scrub: bool = False) -> None:
        """Open the session anchored at ``cert``.  Every session starts with
        a clean slate: retry counts (or fetched objects) inherited from a
        previous one would abort this one before its first fetch."""
        self._close()
        self.session = cert
        self.active = not scrub
        self.scrub_active = scrub
        self.replica.counters.add(
            "scrub_sessions_started" if scrub else "state_transfers_started"
        )

    def _close(self) -> None:
        self.active = False
        self.scrub_active = False
        self._pending.clear()
        self._fetched.clear()
        self._retries.clear()

    def reached(self, seqno: int) -> None:
        """Execution took checkpoint ``seqno``: a full session anchored at or
        below it is over, and a recovering replica settles at its anchor."""
        cert = self.session
        if self.active and cert.seqno <= seqno:
            self._close()
            if self.replica.recovering:
                self._verify_current_and_finish(cert)

    def _in_session(self, seqno: int) -> bool:
        return (self.active or self.scrub_active) and self.session.seqno == seqno

    def _verify_current_and_finish(self, cert: CheckpointCert) -> None:
        """Finish a recovery that executed to or past ``cert`` once our state
        at ``cert.seqno`` is the certified one: our checkpoint there, else
        the live root (which holds the newest checkpoint's digests) while no
        local checkpoint postdates ``cert``.  Checkpointed past a ``cert``
        we no longer hold, we cannot compare: re-anchor at a fresher one."""
        replica = self.replica
        manager = replica.service.manager
        recorded = manager.root_digest(cert.seqno)
        if recorded is not None:
            current_root = recorded
        else:
            seqnos = manager.checkpoint_seqnos()
            if seqnos and max(seqnos) > cert.seqno:
                self.begin_from_root(min_seqno=replica.last_executed)
                return
            _lm, current_root = manager.current_node(0, 0)
        if current_root == cert.state_digest:
            replica.finish_recovery()
        elif replica.last_executed > cert.seqno:
            # Diverged, but we executed past this certificate: installing it
            # would roll state back without rolling back last_executed (ops
            # in between would be lost).  Repair *forward* instead, against a
            # certificate at or past our execution point.
            replica.counters.add("state_transfer_stale_anchors")
            self.begin_from_root(min_seqno=replica.last_executed)
        else:
            # Our state is corrupt even though we executed everything; repair.
            self._open(cert)
            self._query(("meta", 0, 0), cert.state_digest)

    # -- donors ------------------------------------------------------------------

    def _next_donor(self) -> str:
        others = self.replica.other_replicas()
        donor = others[self._donor_cursor % len(others)]
        self._donor_cursor += 1
        return donor

    # -- queries -------------------------------------------------------------------

    def _query(self, key: tuple, expected: object) -> None:
        """Ask the next donor for what ``key`` names, at the session's
        checkpoint, and arm the retry that asks the donor after it.
        ``expected`` is what the reply is checked against."""
        replica = self.replica
        seqno = self.session.seqno
        self._pending[key] = expected
        if key[0] == "meta":
            sent, retried = "fetch_meta_sent", "fetch_meta_retries"
            fetch = FetchMeta(
                requester=replica.node_id, level=key[1], index=key[2], min_seqno=seqno
            )
        else:
            sent, retried = "fetch_object_sent", "fetch_object_retries"
            fetch = FetchObject(requester=replica.node_id, index=key[1], min_seqno=seqno)
        replica.counters.add(sent)
        replica.send(self._next_donor(), fetch)

        def retry() -> None:
            if self._in_session(seqno) and key in self._pending:
                if self._bump_retry(key):
                    return
                replica.counters.add(retried)
                self._query(key, self._pending[key])

        replica.set_timer(_RETRY, retry)

    def _bump_retry(self, key: object) -> bool:
        """Count a retry; give the session up when exhausted (donors likely
        GC'd our target checkpoint).  A full transfer restarts from a fresh
        certificate; a scrub never re-anchors — the scrubber's next cycle
        finds the leaf again and anchors at whatever is stable by then.
        Returns True when the session was abandoned."""
        self._retries[key] = self._retries.get(key, 0) + 1
        if self._retries[key] <= self._max_retries:
            return False
        session, scrub = self.session, self.scrub_active
        self._close()
        if scrub:
            self.replica.counters.add("scrub_sessions_aborted")
        else:
            self.replica.counters.add("state_transfer_aborts")
            self.begin_from_root(min_seqno=session.seqno if session else 1)
        return True

    # -- replies -------------------------------------------------------------------------

    def on_message(self, message, src: str) -> None:
        if isinstance(message, TransferRoot):
            self.on_transfer_root(message, src)
        elif isinstance(message, MetaReply):
            self.on_meta_reply(message, src)
        elif isinstance(message, ObjectReply):
            self.on_object_reply(message, src)
        elif isinstance(message, (FetchRoot, FetchMeta, FetchObject)):
            try:
                self._serve_fetch(message, src)
            except FaultInjected as fault:
                self.replica.crash_self(str(fault))

    def on_transfer_root(self, message: TransferRoot, src: str) -> None:
        if self._awaiting_root is not None or self.active:
            self.start(message.cert)

    def on_meta_reply(self, message: MetaReply, src: str) -> None:
        if not self.active or message.seqno != self.session.seqno:
            return
        key = ("meta", message.level, message.index)
        expected = self._pending.get(key)
        if expected is None:
            return
        if not verify_children(expected, message.children):
            self.replica.counters.add("meta_reply_bad_digest")
            return
        del self._pending[key]
        manager = self.replica.service.manager
        leaves_level = manager.num_levels()
        child_level = message.level + 1
        base = message.index * manager.tree.arity
        # One walk fetches every live child pair; per-child current_node calls
        # would each re-walk the tree spine from the root.
        current_children = manager.current_children(message.level, message.index)
        for offset, (lm, child_digest) in enumerate(message.children):
            child_index = base + offset
            current_lm, current_digest = current_children[offset]
            if child_level == leaves_level:
                if current_digest == child_digest:
                    if current_lm != lm:
                        manager.set_leaf_lm(child_index, lm)
                elif child_index in self._fetched and digest(
                    self._fetched[child_index][0]
                ) == child_digest:
                    pass  # already fetched this value
                else:
                    self._query(("obj", child_index), (lm, child_digest))
            else:
                if (current_lm, current_digest) != (lm, child_digest):
                    self._query(("meta", child_level, child_index), child_digest)
        self._maybe_complete()

    def on_object_reply(self, message: ObjectReply, src: str) -> None:
        if not self._in_session(message.seqno):
            return
        key = ("obj", message.index)
        pending = self._pending.get(key)
        if pending is None:
            return
        lm, expected_digest = pending
        if digest(message.data) != expected_digest:
            self.replica.counters.add("object_reply_bad_digest")
            return
        del self._pending[key]
        self._fetched[message.index] = (message.data, lm)
        self.replica.counters.add("objects_fetched")
        self.replica.counters.add("object_bytes_fetched", len(message.data))
        self._maybe_complete()

    # -- completion ----------------------------------------------------------------------------

    def _maybe_complete(self) -> None:
        if not self._pending:
            if self.active:
                self._complete()
            elif self.scrub_active:
                self._finish_scrub()

    def _complete(self) -> None:
        assert self.session is not None
        replica = self.replica
        cert = self.session
        fetched = dict(self._fetched)
        self._close()
        if replica.last_executed > cert.seqno:
            # A repair walk that execution carried past its anchor: installing
            # would roll state back while last_executed stays put, losing the
            # operations between.  Abandon, and re-anchor at our execution point.
            replica.counters.add("state_transfer_stale_anchors")
            self.begin_from_root(min_seqno=replica.last_executed)
            return
        try:
            installed = self.install(fetched, cert)
        except FaultInjected as fault:
            # The implementation died while installing state (e.g. the
            # fetched data itself triggers its bug): treat as a crash.
            replica.crash_self(str(fault))
            return
        if not installed:
            # Concurrent executions changed objects after we compared them;
            # restart the walk against the same certificate.
            replica.counters.add("state_transfer_restarts")
            self.start(cert)
            return
        replica.counters.add("state_transfers_completed")
        emit(
            replica.tracer,
            replica.node_id,
            "state_transfer_completed",
            seqno=cert.seqno,
            objects=len(fetched),
        )

    def install(self, objects: Dict[int, Tuple[bytes, int]], cert: CheckpointCert) -> bool:
        """The one place certified abstract state enters this replica —
        fetched by a transfer session, or rebuilt from parity by the fused
        tier (repro.bft.fusion).  ``objects`` (index -> (value, lm)) reach
        the service's ``put_objs`` as one consistent checkpoint value at
        ``cert.seqno``; only if the resulting root is the certificate's does
        the replica adopt the checkpoint (and finish a recovery).  False on
        a root mismatch: objects installed, nothing adopted.  A root fetch
        or session still in flight is retired: its anchor is moot."""
        replica = self.replica
        self._awaiting_root = None
        self._close()
        service = replica.service
        root = service.manager.install_fetched(objects, cert.seqno, service.put_objs)
        if root != cert.state_digest:
            return False
        replica.after_state_transfer(cert.seqno, cert)
        return True

    # -- donor side -----------------------------------------------------------------------------

    def _serve_fetch(self, message, src: str) -> None:
        replica = self.replica
        manager = replica.service.manager
        if src not in replica.config.replica_ids:
            # Checkpointed state is for the group: ``KeyTable`` and the
            # network will carry a fetch from any principal.
            replica.counters.add("fetches_refused")
            return
        if isinstance(message, FetchRoot):
            cert = replica.servable_cert()
            # The implicit genesis certificate is offered whatever the floor:
            # a replica that holds nothing newer has nothing better to say.
            if cert is not None and (cert.seqno == 0 or cert.seqno >= message.min_seqno):
                replica.send(src, TransferRoot(replica_id=replica.node_id, cert=cert))
        elif isinstance(message, FetchMeta):
            children = manager.get_meta(message.min_seqno, message.level, message.index)
            if children is not None:
                replica.counters.add("meta_served")
                replica.send(
                    src,
                    MetaReply(
                        replica_id=replica.node_id,
                        seqno=message.min_seqno,
                        level=message.level,
                        index=message.index,
                        children=children,
                    ),
                )
        elif isinstance(message, FetchObject):
            data = manager.get_object_at(message.min_seqno, message.index)
            if data is not None:
                replica.counters.add("objects_served")
                replica.counters.add("object_bytes_served", len(data))
                replica.send(
                    src,
                    ObjectReply(
                        replica_id=replica.node_id,
                        index=message.index,
                        seqno=message.min_seqno,
                        data=data,
                    ),
                )

    # -- scrub: the same session, started at the leaves ---------------------------

    def begin_scrub(self, cert: CheckpointCert, indices) -> bool:
        """Re-fetch specific leaves whose concrete value no longer matches
        their digest in the live partition tree, and repair them in place.

        Unlike a full session this never reboots or rolls the replica back:
        only leaves last modified at or before ``cert.seqno`` are eligible
        (later modifications are legitimately uncertified and will be covered
        by a future checkpoint), and fetched values are verified against the
        local tree digest — which the certificate transitively endorses, the
        local checkpoint at ``cert.seqno`` having matched the quorum's.
        Returns False when no session could be started."""
        replica = self.replica
        if self.active or self.scrub_active or self._awaiting_root or replica.recovering:
            return False
        manager = replica.service.manager
        leaves_level = manager.num_levels()
        targets: Dict[int, Tuple[int, bytes]] = {}
        for index in sorted(indices):
            lm, leaf_digest = manager.current_node(leaves_level, index)
            if lm <= cert.seqno:
                targets[index] = (lm, leaf_digest)
        if not targets:
            return False
        self._open(cert, scrub=True)
        emit(
            replica.tracer,
            replica.node_id,
            "scrub_started",
            seqno=cert.seqno,
            leaves=sorted(targets),
        )
        for index, pair in targets.items():
            self._query(("obj", index), pair)
        return True

    def _finish_scrub(self) -> None:
        replica = self.replica
        cert = self.session
        fetched = dict(self._fetched)
        self._close()
        # A leaf legitimately modified while we were fetching is no longer
        # ours to repair; installing the old value would roll it back.  The
        # tree shows a rewrite once a checkpoint has digested it; one more
        # recent than that is skipped by the service.
        service = replica.service
        leaves_level = service.manager.num_levels()
        repairs: Dict[int, Tuple[bytes, int]] = {}
        for index in sorted(fetched):
            value, lm = fetched[index]
            current_lm, current_digest = service.manager.current_node(leaves_level, index)
            if current_lm == lm and digest(value) == current_digest:
                repairs[index] = (value, lm)
        if not repairs:
            return
        try:
            repaired = service.manager.repair_objects(repairs, service.put_objs)
        except FaultInjected as fault:
            replica.crash_self(str(fault))
            return
        if repaired:
            replica.counters.add("scrub_repairs")
            replica.counters.add("scrub_objects_repaired", len(repaired))
            emit(
                replica.tracer,
                replica.node_id,
                "scrub_repaired",
                seqno=cert.seqno,
                leaves=repaired,
            )
