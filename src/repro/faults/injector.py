"""Byzantine behaviour injectors.

Each injector rewires one replica's honest code path into a scripted attack.
The attacks only ever use the faulty replica's own signing/MAC capabilities —
the protocol's guarantees are about what f such replicas can do, not about
forged cryptography.  The equivocator and the vote corruptor hook
``Replica.auth_multicast``, the one send path of every ordering message.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.bft.messages import PrePrepare
from repro.bft.replica import Replica
from repro.crypto.digest import digest
from repro.net.network import Network


def make_equivocating_primary(replica: Replica) -> None:
    """When primary, send conflicting pre-prepares for the same sequence
    number to different halves of the backups."""
    original = replica.auth_multicast

    def equivocate(message) -> None:
        if not isinstance(message, PrePrepare) or not message.requests:
            original(message)
            return
        others = replica.other_replicas()
        half = len(others) // 2
        first, second = others[:half], others[half:]
        # Honest version to the first half; a pre-prepare travels on its
        # signature alone.
        replica.multicast(first, message)
        # Conflicting (empty) batch, properly signed with our own key, to the
        # second half.
        alt = PrePrepare(
            view=message.view,
            seqno=message.seqno,
            requests=[],
            nondet=message.nondet,
            primary_id=replica.node_id,
        )
        alt.sig = replica.signer.sign(alt.signable_bytes())
        replica.multicast(second, alt)
        replica.counters.add("byzantine_equivocations")

    replica.auth_multicast = equivocate  # type: ignore[method-assign]


def make_lying_checkpointer(replica: Replica) -> None:
    """Advertise checkpoints with bogus state digests."""
    manager = replica.service.manager
    original = manager.take_checkpoint

    def lie(seqno: int) -> bytes:
        original(seqno)
        replica.counters.add("byzantine_checkpoint_lies")
        return digest(b"liar" + seqno.to_bytes(8, "big"))

    manager.take_checkpoint = lie  # type: ignore[method-assign]


def make_result_corruptor(replica: Replica) -> None:
    """Execute operations but report corrupted results to clients (and
    diverge local state digests over time)."""
    original = replica.service.execute

    def corrupt(op: bytes, client_id: str, nondet: bytes, read_only: bool = False) -> bytes:
        result = original(op, client_id, nondet, read_only=read_only)
        replica.counters.add("byzantine_corrupt_results")
        return bytes(b ^ 0xFF for b in result[:8]) + result[8:]

    replica.service.execute = corrupt  # type: ignore[method-assign]


def make_vote_corruptor(replica: Replica) -> None:
    """Send prepares/commits whose digests never match any real batch."""
    original = replica.auth_multicast

    def corrupt(message) -> None:
        if hasattr(message, "digest") and isinstance(getattr(message, "digest"), bytes):
            # The outgoing vote is already signed, hence frozen: build the
            # corrupted vote as a fresh message and re-sign it.
            message = dataclasses.replace(message, digest=digest(b"garbage-vote"))
            if hasattr(message, "sig"):
                message.sig = replica.signer.sign(message.signable_bytes())
            replica.counters.add("byzantine_corrupt_votes")
        original(message)

    replica.auth_multicast = corrupt  # type: ignore[method-assign]


def drop_fraction_from(network: Network, node_id: str, fraction: float) -> Callable[[], None]:
    """Network-level fault: silently lose a fraction of one node's outbound
    traffic (models a flaky NIC / overloaded host)."""

    def interceptor(src: str, dst: str, message):
        if src == node_id and network.sim.rng.random() < fraction:
            return None
        return message

    return network.add_interceptor(interceptor)
