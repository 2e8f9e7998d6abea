"""The BASE library proper: glue between a conformance wrapper and the BFT
engine (paper Figure 1).

``BASEService`` adapts a :class:`~repro.base.wrapper.ConformanceWrapper` to
the engine's :class:`~repro.bft.service.StateMachine` interface:

* ``execute`` upcalls go to the wrapper, with the batch's agreed
  non-deterministic value decoded into a timestamp;
* the ``modify`` procedure is injected into the wrapper and drives
  copy-on-write checkpointing in the
  :class:`~repro.base.statemgr.AbstractStateManager`;
* ``get_obj``/``put_objs`` (the abstraction function and its inverse) serve
  checkpoint reads and state-transfer installs;
* non-determinism agreement uses
  :class:`~repro.bft.nondet.TimestampAgreement`;
* a read-only answer whose wrapper declared, through the injected ``reads``,
  every abstract object it depends on is kept by op bytes and reused until
  ``modify`` names one of those objects or ``put_objs`` installs any (state
  transfer, scrub repair and speculation rollback all go through it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.base.statemgr import AbstractStateManager, genesis_root_digest
from repro.base.wrapper import ConformanceWrapper
from repro.bft.nondet import TimestampAgreement
from repro.bft.service import StateMachine
from repro.util.clock import VirtualClock


class BASEService(StateMachine):
    """A replicated service built from an off-the-shelf implementation."""

    def __init__(
        self,
        wrapper: ConformanceWrapper,
        clock: VirtualClock,
        arity: int = 8,
    ) -> None:
        super().__init__(
            AbstractStateManager(wrapper.spec.num_objects, wrapper.get_obj, arity=arity)
        )
        self.wrapper = wrapper
        self.arity = arity
        wrapper.set_modify_callback(self._modify)
        wrapper.set_reads_callback(self._note_read)
        self.timestamps = TimestampAgreement(clock)
        self._genesis_digest: Optional[bytes] = None
        # Read-only answers: op bytes -> (reply, the objects it declared), and
        # object -> the ops whose kept answer declared it (insertion-ordered).
        self._answers: Dict[bytes, Tuple[bytes, List[int]]] = {}
        self._readers: Dict[int, Dict[bytes, None]] = {}
        # What the read-only execution in progress has declared; None during
        # an ordered one, whose declarations are ignored.
        self._reading: Optional[List[int]] = None

    def execute(self, op: bytes, client_id: str, nondet: bytes, read_only: bool = False) -> bytes:
        timestamp = self.timestamps.accept(nondet) if nondet else 0
        if not read_only:
            return self.wrapper.execute(op, client_id, timestamp, read_only=False)
        kept = self._answers.get(op)
        if kept is not None:
            self.manager.counters.add("read_answers_reused")
            return kept[0]
        self._reading = reads = []
        try:
            answer = self.wrapper.execute(op, client_id, timestamp, read_only=True)
        finally:
            self._reading = None
        if reads:
            self._keep(op, answer, reads)
        return answer

    def _keep(self, op: bytes, answer: bytes, reads: List[int]) -> None:
        if len(self._answers) >= self.wrapper.spec.num_objects:
            self._answers.clear()
            self._readers.clear()
        self._answers[op] = (answer, reads)
        for index in reads:
            self._readers.setdefault(index, {})[op] = None

    def _note_read(self, index: int) -> None:
        if self._reading is not None:
            self._reading.append(index)

    def _modify(self, index: int) -> None:
        """The ``modify`` the wrapper calls: drop every kept answer that read
        ``index``, then let the state manager see the change."""
        for op in self._readers.pop(index, ()):
            for other in self._answers.pop(op)[1]:
                if other != index:
                    self._readers[other].pop(op, None)
        self.manager.modify(index)

    def put_objs(self, objects: Dict[int, bytes]) -> None:
        self._answers.clear()
        self._readers.clear()
        self.wrapper.put_objs(objects)

    def genesis_root_digest(self) -> bytes:
        if self._genesis_digest is None:
            self._genesis_digest = genesis_root_digest(
                self.wrapper.spec.num_objects,
                self.wrapper.spec.initial_object,
                arity=self.arity,
                client_shards=self.manager.client_shards,
            )
        return self._genesis_digest

    def propose_nondet(self) -> bytes:
        return self.timestamps.propose()

    def check_nondet(self, nondet: bytes) -> bool:
        return self.timestamps.check(nondet)

    def save_for_recovery(self) -> None:
        self.wrapper.save_for_recovery()
