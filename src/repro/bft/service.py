"""The seam between the BFT replication engine and the replicated service
(paper Figure 1).

A service supplies the paper's upcalls: ``execute``, the abstraction function
``get_obj`` (handed to the :class:`~repro.base.statemgr.AbstractStateManager`
it builds, which also gives it ``manager.modify``) and its inverse
``put_objs``, plus the genesis root digest, non-determinism agreement and the
save before a reboot.  Checkpoints, the replicated client table, speculation
frames and both sides of state transfer belong to the library: the replica and
its sub-protocols call ``service.manager`` for them, and :class:`StateMachine`
does not re-export that surface.  Five library calls stay on the class:

* ``record_reply`` and the three ``*_speculation`` calls change execution
  evidence, so a service that records its history (``RecordingKV`` in
  :mod:`repro.bft.testing`) overrides them to feed its recorder;
  ``rollback_speculation`` also hands the manager this service's
  ``put_objs``.
* ``current_node`` is the state root that ``repro demo`` and the host-time
  benchmark's agreement check read from outside the library.

The BASE library (:mod:`repro.base.library`) is the implementation that wraps
off-the-shelf code; unit tests use the small key-value machine in
:mod:`repro.bft.testing`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    from repro.base.statemgr import AbstractStateManager


class StateMachine(ABC):
    """Deterministic service behind one replica, over one state manager.

    A subclass that leaves out one of the three methods a service writes
    cannot be instantiated: checkpointing, state transfer and rollback call
    back into them exactly when fault tolerance is being relied upon."""

    def __init__(self, manager: "AbstractStateManager") -> None:
        self.manager = manager

    # -- what a service writes ---------------------------------------------------

    @abstractmethod
    def execute(self, op: bytes, client_id: str, nondet: bytes, read_only: bool = False) -> bytes:
        """Apply one operation and return its result bytes.

        ``nondet`` is the batch's agreed non-deterministic value (e.g. an
        encoded timestamp).  Read-only executions must not mutate state.
        """

    @abstractmethod
    def put_objs(self, objects: Dict[int, bytes]) -> None:
        """The inverse abstraction function: overwrite the concrete state of
        the given abstract objects with these encodings.

        State transfer calls it once with a set that completes a consistent
        checkpoint (the paper's ``put_objs`` contract, so encodings may have
        inter-object dependencies); scrub repair and speculation rollback
        call it with the objects they restore.
        """

    @abstractmethod
    def genesis_root_digest(self) -> bytes:
        """Root digest of the specification's initial abstract state.

        Computable without touching the implementation (it is a pure function
        of the abstract spec), so every replica knows it a priori — the
        genesis state is an implicitly certified checkpoint at seqno 0."""

    # -- non-determinism agreement (paper section 2.2), proactive recovery ------

    def propose_nondet(self) -> bytes:
        """Primary-side choice of the non-deterministic value for a batch."""
        return b""

    def check_nondet(self, nondet: bytes) -> bool:
        """Backup-side validation of the primary's proposed value."""
        return True

    def save_for_recovery(self) -> None:
        """Persist recovery metadata (conformance rep, identifier maps,
        partition lm's) before a reboot.  Default: nothing to save."""

    # -- execution evidence: at-most-once replies, speculation frames ------------

    def record_reply(self, client_id: str, reqid: int, reply: bytes) -> None:
        """Record a client's latest executed request and its reply.

        This table is part of the replicated abstract state (as the BFT
        library keeps its reply cache in the checkpointed state region), so
        deduplication survives checkpoints, state transfer, and recovery.
        """
        self.manager.record_reply(client_id, reqid, reply)

    def begin_speculation(self) -> None:
        """Open an undo frame: executions until the matching commit/rollback
        are tentative."""
        self.manager.begin_speculation()

    def commit_speculation(self) -> None:
        """Make the oldest open frame's executions permanent (its batch
        gathered a commit certificate)."""
        self.manager.commit_speculation()

    def rollback_speculation(self) -> int:
        """Undo every open frame, newest first (view change, divergence, or
        incoming state transfer); returns how many frames were undone."""
        return self.manager.rollback_speculation(self.put_objs)

    # -- read by tools outside the library ---------------------------------------

    def current_node(self, level: int, index: int) -> Tuple[int, bytes]:
        """⟨lm, digest⟩ of node (level, index) over the live state."""
        return self.manager.current_node(level, index)
