"""The seam between the BFT replication engine and the replicated service
(paper Figure 1).

Everything the replica core needs from the application is behind
:class:`StateMachine`.  Checkpoints, the replicated client table, speculation
frames and both sides of state transfer are the job of one
:class:`~repro.base.statemgr.AbstractStateManager`, so the class forwards that
whole surface to ``self.manager`` once, and a service supplies only the
paper's upcalls: ``execute``, the abstraction function ``get_obj`` (handed to
the manager it builds, which also gives it ``manager.modify``) and its inverse
``put_objs``.  The BASE library (:mod:`repro.base.library`) is the
implementation that wraps off-the-shelf code; unit tests use the small
key-value machine in :mod:`repro.bft.testing`.

State is named hierarchically for transfer: a partition tree whose leaves are
the abstract objects.  ``get_meta(seqno, level, index)`` returns the
⟨lm, digest⟩ pairs for the children of interior node ``(level, index)`` at
checkpoint ``seqno``; nodes at level ``num_levels()`` are the leaves
(abstract objects).  The ``current_*`` accessors expose the same tree over
the *live* state so a fetching replica can decide which partitions are out of
date.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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

    # -- at-most-once execution state ------------------------------------------

    def record_reply(self, client_id: str, reqid: int, reply: bytes) -> None:
        """Record a client's latest executed request and its reply.

        This table is part of the replicated abstract state (as the BFT
        library keeps its reply cache in the checkpointed state region), so
        deduplication survives checkpoints, state transfer, and recovery.
        """
        self.manager.record_reply(client_id, reqid, reply)

    def last_recorded(self, client_id: str) -> Optional[Tuple[int, bytes]]:
        """(reqid, reply) of the client's newest executed request, if any."""
        return self.manager.last_recorded(client_id)

    # -- speculative execution (fast path) ---------------------------------------

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

    # -- checkpointing ---------------------------------------------------------

    def take_checkpoint(self, seqno: int) -> bytes:
        """Record a checkpoint labelled ``seqno``; return its state digest
        (the partition-tree root digest)."""
        return self.manager.take_checkpoint(seqno)

    def discard_checkpoints_below(self, seqno: int) -> None:
        """Garbage-collect checkpoints older than ``seqno``."""
        self.manager.discard_checkpoints_below(seqno)

    def checkpoint_seqnos(self) -> List[int]:
        """Ascending list of live checkpoint labels."""
        return self.manager.checkpoint_seqnos()

    # -- state transfer: serving side ------------------------------------------

    def num_levels(self) -> int:
        """Depth of the partition tree (leaves live at this level)."""
        return self.manager.num_levels()

    def root_digest(self, seqno: int) -> Optional[bytes]:
        """Partition-tree root digest at checkpoint ``seqno`` (None if the
        checkpoint is not held)."""
        return self.manager.root_digest(seqno)

    def get_meta(self, seqno: int, level: int, index: int) -> Optional[List[Tuple[int, bytes]]]:
        """⟨lm, digest⟩ pairs for the children of node (level, index) at
        checkpoint ``seqno``."""
        return self.manager.get_meta(seqno, level, index)

    def get_object_at(self, seqno: int, index: int) -> Optional[bytes]:
        """Value of abstract object ``index`` at checkpoint ``seqno``."""
        return self.manager.get_object_at(seqno, index)

    def get_leaf(self, seqno: int, index: int) -> Optional[Tuple[int, bytes]]:
        """⟨lm, digest⟩ of leaf ``index`` at checkpoint ``seqno`` (what the
        fused-backup tier packs into parity cells)."""
        return self.manager.get_leaf(seqno, index)

    # -- state transfer: fetching side -------------------------------------------

    def current_node(self, level: int, index: int) -> Tuple[int, bytes]:
        """⟨lm, digest⟩ of node (level, index) over the live state."""
        return self.manager.current_node(level, index)

    def current_children(self, level: int, index: int) -> List[Tuple[int, bytes]]:
        """⟨lm, digest⟩ pairs of every live child of node (level, index) in
        one call — one tree walk instead of one per child when checking a
        metadata reply against local state."""
        return self.manager.current_children(level, index)

    def adopt_leaf_lm(self, index: int, lm: int) -> None:
        """Adopt a verified last-modified seqno for an up-to-date leaf (used
        after reboot, when local lm metadata may be stale while the object
        value is correct)."""
        self.manager.set_leaf_lm(index, lm)

    def install_fetched(self, objects: Dict[int, Tuple[bytes, int]], seqno: int) -> bytes:
        """Install fetched (value, lm) pairs, bringing the abstract state to
        the value of checkpoint ``seqno``; return the resulting root digest."""
        return self.manager.install_fetched(objects, seqno, self.put_objs)

    # -- abstract-state scrubbing ------------------------------------------------

    def scan_corruption(self, start: int, budget: int) -> Tuple[List[int], int]:
        """Re-digest up to ``budget`` leaves round-robin from cursor ``start``
        and return ``(corrupt leaf indices, next cursor)``.

        This detects *silent* concrete-state corruption: the partition tree
        only re-digests objects reported through ``modify``, so a value
        corrupted in place keeps a stale (previously correct) digest that no
        longer matches the data it labels.
        """
        return self.manager.scan_for_corruption(start, budget)

    def repair_objects(self, objects: Dict[int, Tuple[bytes, int]]) -> List[int]:
        """Overwrite specific abstract objects with verified (value, lm)
        pairs fetched by a scrub session — a partial state transfer that
        leaves checkpoints and execution state untouched.  Returns the
        indices repaired (a leaf rewritten meanwhile is not)."""
        return self.manager.repair_objects(objects, self.put_objs)
