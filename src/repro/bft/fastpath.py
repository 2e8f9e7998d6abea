"""The fast path: speculative execution and read leases.

Both are opt-in (``BFTConfig.speculative_execution`` / ``read_leases``) and
both are shortcuts around the three-phase core that must be undone when the
core changes its mind, so one manager owns their state and every entry point
gates on its flag first: with the flags off nothing here runs past its first
line and no ``spec_*`` / ``lease*`` counter is ever created.

**Speculation** runs prepared-but-uncommitted batches tentatively, in order,
ahead of ``last_executed``.  Every speculated batch has an undo frame in the
service, popped on promotion (its commit certificate arrived) or unwound on
view change, divergence, or state transfer.  Clients accept 2f+1 matching
:class:`~repro.bft.messages.SpecReply` from one view.

**Read leases** let a replica answer read-only requests alone while the
primary's write pipeline is drained: the primary grants a lease carrying its
executed seqno and revokes it before proposing the next write.

**Parked reads**: a read-only request that cannot be answered at the instant
it arrives (open frames, no lease, lease floor not reached, a view change in
progress, the new view's re-proposals not yet re-executed) is held here and
answered, through the same admission check, when a frame promotes, a lease
arrives, the new view is installed or execution catches up.  To the client
that is a request the network delivered later, so it adds no interleaving the
asynchronous network could not already produce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.bft.messages import Lease, LeaseRevoke, PrePrepare, Request
from repro.util.trace import emit

if TYPE_CHECKING:
    from repro.bft.replica import Replica

RequestKey = Tuple[str, int]  # (client_id, reqid)


class FastPathManager:
    """Per-replica speculation frames and read-lease state."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica
        # Open speculation frames, oldest first — (seqno, keys of tentatively
        # replied requests, batch digest).  Frames are contiguous from
        # last_executed + 1; promotion pops the head, rollback clears all.
        self.spec_frames: List[Tuple[int, List[RequestKey], bytes]] = []
        # Requests whose recorded reply is still speculative, so the core
        # answers their retransmissions with SpecReply rather than a (false)
        # committed Reply.
        self.tentative_replies: Set[RequestKey] = set()
        # The read lease this replica holds — (view, epoch, min executed
        # seqno) — and, at the primary, the epoch granted and not yet revoked.
        self.lease: Optional[Tuple[int, int, int]] = None
        self.lease_granted: Optional[int] = None
        self.lease_epoch = 0
        # Read-only requests admit_read() refused on arrival, by client id.
        # A client has one invocation outstanding and is authenticated before
        # its request gets here, so the table is bounded by the number of
        # principals and needs no timer: the client's read_only_timeout is
        # the backstop, exactly as for a lost message.
        self.parked: Dict[str, Request] = {}
        # The highest seqno the adopted NEW-VIEW re-proposed.  A write a
        # client accepted at 2f+1 tentative replies is prepared at 2f+1
        # replicas and so is in O, but its frame was rolled back at the view
        # boundary: until O has re-executed, committed state lacks it.
        self.read_floor = 0

    def on_message(self, message, src: str) -> None:
        if not self.replica.config.read_leases:
            return
        if isinstance(message, Lease):
            self.on_lease(message, src)
        elif isinstance(message, LeaseRevoke):
            self.on_lease_revoke(message, src)

    # -- speculative execution -----------------------------------------------------

    def speculate(self) -> None:
        """Run every batch that is prepared here, in order, tentatively.

        Checkpoint boundaries are never speculated: taking a checkpoint
        freezes state that a rollback would have to repudiate, so boundary
        batches wait for their commit certificates and execute on the
        committed path.
        """
        replica = self.replica
        if not replica.config.speculative_execution:
            return
        if replica.view_changes.in_view_change or replica.recovering or replica.transfer.active:
            return
        while not replica._stopped:
            seqno = replica.last_executed + len(self.spec_frames) + 1
            if seqno % replica.config.checkpoint_interval == 0:
                return
            if not replica.in_window(seqno):
                return
            slot = replica.log.get(replica.view, seqno)
            if slot is None or slot.pre_prepare is None:
                return
            if slot.executed or slot.spec_executed:
                return
            if not replica.log.prepared(slot, replica.node_id):
                return
            slot.spec_executed = True
            self.spec_frames.append((seqno, [], slot.pre_prepare.batch_digest()))
            replica.service.begin_speculation()
            replica.counters.add("spec_batches")
            replica._execute_batch(seqno, slot.pre_prepare, reply=self._tentative_reply)

    def _tentative_reply(self, request: Request, result: bytes) -> None:
        key = (request.client_id, request.reqid)
        self.spec_frames[-1][1].append(key)
        self.tentative_replies.add(key)
        self.replica.counters.add("spec_replies_sent")
        self.replica.send_reply(request, result, tentative=True)

    def promote(self, seqno: int, pre_prepare: PrePrepare) -> bool:
        """``pre_prepare`` committed at ``seqno``.  True when the oldest frame
        already ran exactly that batch: its tentative executions become
        permanent and the core must not execute it again.  No replies are
        resent — the client either accepted the 2f+1 tentative quorum
        already, or its retransmission now gets a committed Reply.

        A frame for ``seqno`` holding a *different* batch (possible only
        across view changes) is a divergence: every frame is undone and the
        core executes the committed batch for real."""
        if not self.spec_frames or self.spec_frames[0][0] != seqno:
            return False
        if self.spec_frames[0][2] != pre_prepare.batch_digest():
            self.rollback("divergence")
            return False
        _seqno, replied, _digest = self.spec_frames.pop(0)
        self.replica.service.commit_speculation()
        self.tentative_replies.difference_update(replied)
        # Retransmissions of a tentatively answered request keep it in flight.
        self.replica.in_flight.difference_update(replied)
        self.replica.counters.add("spec_promotions")
        return True

    def rollback(self, reason: str) -> None:
        """Undo every open frame (newest first, inside the service) and
        forget their tentative replies.  Requests rolled back here were
        already purged from pending/in-flight at speculation time; a client
        that still wants one will retransmit it."""
        if not self.spec_frames:
            return
        replica = self.replica
        rolled = len(self.spec_frames)
        replica.service.rollback_speculation()
        self.discard()
        replica.counters.add("spec_rollbacks")
        replica.counters.add("spec_batches_rolled_back", rolled)
        emit(
            replica.tracer,
            replica.node_id,
            "speculation_rolled_back",
            reason=reason,
            batches=rolled,
        )

    def discard(self) -> None:
        """Drop the replica-side bookkeeping of frames the service no longer
        holds (rolled back, or wiped wholesale by ``install_fetched``)."""
        self.spec_frames.clear()
        self.tentative_replies.clear()

    def end_view(self, reproposed: int) -> None:
        """The fast path cannot cross a view boundary: tentative executions
        were ordered by the old primary and the new view's O set may order
        those seqnos differently, and read leases are per-view grants.
        Parked reads do cross it: they hold no state of the old view and are
        admitted afresh in the new one — once execution has reached
        ``reproposed``, the highest seqno in the new view's O (0: O is empty,
        no floor)."""
        self.rollback("view-change")
        self.lease = None
        self.lease_granted = None
        self.read_floor = reproposed

    # -- read leases ----------------------------------------------------------------

    def admit_read(self) -> bool:
        """May the read-only optimisation answer a request right now?"""
        replica = self.replica
        self.maybe_grant_lease()
        if self.spec_frames:
            # Tentative state must not leak through the read-only path: a
            # speculated write could still be rolled back.
            return False
        if replica.last_executed < self.read_floor:
            # OSDI'99 section 5.1's "a read waits until the tentative state it
            # would see commits", carried across the view boundary.
            return False
        if replica.config.read_leases:
            lease = self.lease
            if (
                lease is None
                or lease[0] != replica.view
                or replica.last_executed < lease[2]
                or replica.view_changes.in_view_change
            ):
                return False
            replica.counters.add("leased_reads_served")
        return True

    def park_read(self, request: Request) -> None:
        """``admit_read()`` just refused ``request`` on arrival: hold it for
        :meth:`serve_parked`.  A newer read replaces the client's older one."""
        replica = self.replica
        held = self.parked.get(request.client_id)
        if held is not None:
            if held.reqid >= request.reqid:
                return  # a duplicate, or older than the read already waiting
            replica.counters.add("parked_reads_dropped")
        if self.spec_frames:
            replica.counters.add("read_only_deferred")
        elif replica.config.read_leases:
            replica.counters.add("leased_reads_refused")
        replica.counters.add("reads_parked")
        self.parked[request.client_id] = request

    def serve_parked(self) -> None:
        """Answer the parked reads ``admit_read()`` now admits — every
        condition re-evaluated per request, nothing remembered from arrival.
        Called where one can have become true (execution caught up, a lease
        arrived) and never while the service is mid-batch."""
        if not self.parked or self.spec_frames:
            return
        replica = self.replica
        if replica.view_changes.in_view_change or replica.recovering:
            return  # adopting the new view calls again
        for client_id, request in list(self.parked.items()):
            recorded = replica.service.manager.last_recorded(client_id)
            if recorded is not None and recorded[0] > request.reqid:
                # The client has moved on: nobody is waiting for this answer.
                del self.parked[client_id]
                replica.counters.add("parked_reads_dropped")
                continue
            if replica._stopped or not self.admit_read():
                return
            del self.parked[client_id]
            replica.counters.add("parked_reads_served")
            replica.answer_read_only(request)

    def maybe_grant_lease(self) -> None:
        """Primary: grant a read lease to every replica once the write
        pipeline has fully drained (nothing queued, assigned, or
        speculated).  The grant carries our executed seqno so holders refuse
        to serve until they have caught up to the granted state."""
        replica = self.replica
        if not replica.config.read_leases or not replica.is_primary():
            return
        if replica.view_changes.in_view_change or replica.recovering or replica.transfer.active:
            return
        if self.lease_granted is not None:
            return
        if replica.pending or self.spec_frames or replica.next_seqno > replica.last_executed:
            return
        self.lease_epoch += 1
        self.lease_granted = self.lease_epoch
        lease = Lease(
            view=replica.view,
            epoch=self.lease_epoch,
            seqno=replica.last_executed,
            primary_id=replica.node_id,
        )
        replica.counters.add("lease_grants")
        self.lease = (replica.view, self.lease_epoch, replica.last_executed)
        replica.auth_multicast(lease)

    def revoke_for_write(self) -> None:
        """Primary, about to propose a write: kill every outstanding read
        lease first, so no replica serves a leased read concurrently with the
        mutation it conflicts with."""
        replica = self.replica
        if not replica.config.read_leases or self.lease_granted is None or not replica.pending:
            return
        revoke = LeaseRevoke(
            view=replica.view, epoch=self.lease_granted, primary_id=replica.node_id
        )
        self.lease_granted = None
        self.lease = None
        replica.counters.add("lease_revokes")
        replica.auth_multicast(revoke)

    def on_write_proposed(self, pre_prepare: PrePrepare) -> None:
        """Seeing a write proposal conflicts with any lease we hold; drop it
        locally without waiting for the primary's revocation."""
        if self.replica.config.read_leases and self.lease is not None and pre_prepare.requests:
            self.lease = None
            self.replica.counters.add("leases_self_revoked")

    def on_lease(self, lease: Lease, src: str) -> None:
        replica = self.replica
        if not replica.check_auth(lease, expected_sender=lease.primary_id):
            return
        if src != lease.primary_id or lease.primary_id != replica.config.primary(lease.view):
            return
        if lease.view != replica.view or replica.view_changes.in_view_change:
            return
        current = self.lease
        if current is not None and (current[0], current[1]) >= (lease.view, lease.epoch):
            return
        self.lease = (lease.view, lease.epoch, lease.seqno)
        replica.counters.add("leases_held")
        self.serve_parked()

    def on_lease_revoke(self, revoke: LeaseRevoke, src: str) -> None:
        replica = self.replica
        if not replica.check_auth(revoke, expected_sender=revoke.primary_id):
            return
        if src != revoke.primary_id or revoke.primary_id != replica.config.primary(revoke.view):
            return
        lease = self.lease
        if lease is not None and lease[0] == revoke.view and lease[1] <= revoke.epoch:
            self.lease = None
            replica.counters.add("leases_revoked")
