"""Replica message log: per-sequence-number slots and certificates.

A slot gathers the pre-prepare and the prepare/commit votes for one sequence
number within one view.  Certificates:

* *prepared*   — pre-prepare + 2f prepares from distinct other replicas with
  matching (view, seqno, digest);
* *committed-local* — prepared + 2f+1 commits (own included).

The log covers the water-mark window (h, h + L]; entries at or below the
stable checkpoint are discarded by garbage collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bft.config import BFTConfig
from repro.bft.messages import Commit, Prepare, PrePrepare, PreparedProof


@dataclass
class Slot:
    """Ordering state for one (view, seqno)."""

    view: int
    seqno: int
    pre_prepare: Optional[PrePrepare] = None
    prepares: Dict[str, Prepare] = field(default_factory=dict)
    commits: Dict[str, Commit] = field(default_factory=dict)
    sent_prepare: bool = False
    sent_commit: bool = False
    executed: bool = False
    spec_executed: bool = False  # fast path: batch ran tentatively at prepare time

    def digest(self) -> Optional[bytes]:
        if self.pre_prepare is None:
            return None
        return self.pre_prepare.batch_digest()

    def matching_prepares(self) -> List[Prepare]:
        d = self.digest()
        if d is None:
            return []
        return [p for p in self.prepares.values() if p.digest == d]

    def matching_commits(self) -> List[Commit]:
        d = self.digest()
        if d is None:
            return []
        return [c for c in self.commits.values() if c.digest == d]


class MessageLog:
    """All slots for the current water-mark window, across views."""

    def __init__(self, config: BFTConfig) -> None:
        self.config = config
        self._slots: Dict[Tuple[int, int], Slot] = {}

    def slot(self, view: int, seqno: int) -> Slot:
        key = (view, seqno)
        entry = self._slots.get(key)
        if entry is None:
            entry = Slot(view=view, seqno=seqno)
            self._slots[key] = entry
        return entry

    def get(self, view: int, seqno: int) -> Optional[Slot]:
        return self._slots.get((view, seqno))

    def slots_for_view(self, view: int) -> List[Slot]:
        return [s for (v, _n), s in self._slots.items() if v == view]

    # -- certificates ----------------------------------------------------------

    def prepared(self, slot: Slot, replica_id: str) -> bool:
        """Prepared certificate: a pre-prepare plus 2f matching prepares from
        distinct backups (the sender's own prepare is in the log; the primary
        never sends prepares — its pre-prepare is its vote).  ``prepares`` is
        keyed by sender, so its matching entries are the distinct votes."""
        pre_prepare = slot.pre_prepare
        if pre_prepare is None:
            return False
        d = pre_prepare.batch_digest()
        primary = pre_prepare.primary_id
        votes = 0
        for sender, p in slot.prepares.items():
            if p.digest == d and sender != primary:
                votes += 1
        return votes >= 2 * self.config.f

    def committed_local(self, slot: Slot, replica_id: str) -> bool:
        """Prepared plus 2f+1 matching commits from distinct replicas."""
        if not self.prepared(slot, replica_id):
            return False
        d = slot.pre_prepare.batch_digest()  # type: ignore[union-attr]
        votes = 0
        for c in slot.commits.values():
            if c.digest == d:
                votes += 1
        return votes >= self.config.quorum

    def prepared_proof(self, slot: Slot) -> Optional[PreparedProof]:
        """Materialize a transferable prepared certificate, if one exists."""
        if slot.pre_prepare is None:
            return None
        prepares = slot.matching_prepares()
        by_sender = {p.replica_id: p for p in prepares if p.replica_id != slot.pre_prepare.primary_id}
        if len(by_sender) < 2 * self.config.f:
            return None
        chosen = [by_sender[k] for k in sorted(by_sender)][: 2 * self.config.f]
        return PreparedProof(pre_prepare=slot.pre_prepare, prepares=chosen)

    def best_prepared_proof(self, seqno: int, replica_id: str) -> Optional[PreparedProof]:
        """The prepared certificate for ``seqno`` from the highest view in
        which this replica prepared it (used to build view-change messages)."""
        best: Optional[PreparedProof] = None
        for (view, n), slot in self._slots.items():
            if n != seqno or not self.prepared(slot, replica_id):
                continue
            proof = self.prepared_proof(slot)
            if proof is not None and (best is None or proof.view() > best.view()):
                best = proof
        return best

    # -- garbage collection ------------------------------------------------------

    def collect_below(self, stable_seqno: int) -> None:
        """Drop every slot with seqno <= stable_seqno."""
        for key in [k for k in self._slots if k[1] <= stable_seqno]:
            del self._slots[key]

    def max_seqno(self) -> int:
        return max((n for (_v, n) in self._slots), default=0)

    def __len__(self) -> int:
        return len(self._slots)
