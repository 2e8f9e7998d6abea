"""Catch-up: status gossip and the retransmission channel behind it.

Every replica multicasts a :class:`~repro.bft.messages.Status` on a timer.  A
peer that reads one and sees the sender lagging answers with whatever closes
the gap: its new-view proof, its stable checkpoint certificate, the
pre-prepares still being ordered, or — in one
:class:`~repro.bft.messages.RetransmitCommitted` — committed batches with
their commit certificates, which the laggard verifies by signature and feeds
to the core as if it had heard the original messages.  Both the certificate
and the retransmission are self-certifying (every vote in them is signed), so
they travel without an authenticator, and a laggard whose session keys a
reboot refreshed can still use them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bft.messages import RetransmitCommitted, Status

if TYPE_CHECKING:
    from repro.bft.replica import Replica


class CatchUpManager:
    """Per-replica status loop and both ends of retransmission."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica
        replica.set_timer(replica.config.status_interval, self._tick)

    def _tick(self) -> None:
        self._send_status()
        self.replica.set_timer(self.replica.config.status_interval, self._tick)

    def _send_status(self) -> None:
        replica = self.replica
        if replica.recovering:
            return
        status = Status(
            replica_id=replica.node_id,
            view=replica.view,
            stable_seqno=replica.stable_seqno,
            last_executed=replica.last_executed,
            in_view_change=replica.view_changes.in_view_change,
        )
        replica.counters.add("status_sent")
        replica.auth_multicast(status)

    def on_message(self, message, src: str) -> None:
        if isinstance(message, Status):
            self.on_status(message, src)
        elif isinstance(message, RetransmitCommitted):
            self.on_retransmit(message, src)

    def on_status(self, status: Status, src: str) -> None:
        replica = self.replica
        if not replica.check_auth(status) or src != status.replica_id:
            return
        # Peer is in an older view: help it catch up with our new-view proof.
        if status.view < replica.view:
            replica.view_changes.retransmit_view_proof(src)
        # Peer's checkpoint lags ours: hand it our stable certificate.
        if status.stable_seqno < replica.stable_seqno and replica.stable_cert is not None:
            replica.send(src, replica.stable_cert)
        # We are the primary and the peer may have missed pre-prepares for
        # slots still being ordered (e.g. it was mid-view-change when they
        # were multicast): resend them.
        if (
            status.view == replica.view
            and replica.is_primary()
            and not replica.view_changes.in_view_change
        ):
            for slot in replica.log.slots_for_view(replica.view):
                if (
                    slot.pre_prepare is not None
                    and not slot.executed
                    and slot.seqno > status.last_executed
                ):
                    replica.send(src, slot.pre_prepare)
        # Peer missed executions that are still in our log: retransmit the
        # committed pre-prepares plus commit certificates.
        if status.last_executed < replica.last_executed:
            entries = []
            for seqno in range(status.last_executed + 1, replica.last_executed + 1):
                if len(entries) >= 8:
                    break
                pre_prepare = replica.committed.get(seqno)
                if pre_prepare is None:
                    continue
                slot = replica.log.get(pre_prepare.view, seqno)
                if slot is None:
                    continue
                commits = slot.matching_commits()
                if len({c.replica_id for c in commits}) >= replica.config.quorum:
                    entries.append((pre_prepare, slot.matching_prepares(), commits))
            if entries:
                replica.counters.add("retransmissions")
                replica.send(src, RetransmitCommitted(replica_id=replica.node_id, entries=entries))

    def on_retransmit(self, message: RetransmitCommitted, src: str) -> None:
        replica = self.replica
        if src != message.replica_id:
            return
        for pre_prepare, prepares, commits in message.entries:
            if pre_prepare.seqno <= replica.last_executed:
                continue
            if not replica.in_window(pre_prepare.seqno):
                continue
            if pre_prepare.primary_id != replica.config.primary(pre_prepare.view):
                continue
            if not replica.sigs.verify(
                pre_prepare.primary_id, pre_prepare.signable_bytes(), pre_prepare.sig
            ):
                continue
            slot = replica.log.slot(pre_prepare.view, pre_prepare.seqno)
            if slot.pre_prepare is None:
                slot.pre_prepare = pre_prepare
            digest = pre_prepare.batch_digest()
            for prepare in prepares:
                if prepare.digest != digest or prepare.seqno != pre_prepare.seqno:
                    continue
                if prepare.replica_id not in replica.config.replica_ids:
                    continue
                if prepare.replica_id == pre_prepare.primary_id:
                    continue
                # Prepares are signed, so they remain verifiable across
                # session-key refreshes.
                if not replica.sigs.verify(
                    prepare.replica_id, prepare.signable_bytes(), prepare.sig
                ):
                    continue
                slot.prepares.setdefault(prepare.replica_id, prepare)
            for commit in commits:
                if commit.digest != digest or commit.replica_id not in replica.config.replica_ids:
                    continue
                # Relayed commits are verified by signature, as on_commit
                # verifies a commit heard first hand.
                if not replica.sigs.verify(
                    commit.replica_id, commit.signable_bytes(), commit.sig
                ):
                    continue
                slot.commits.setdefault(commit.replica_id, commit)
            replica._maybe_execute(slot)
