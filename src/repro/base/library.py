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
  :class:`~repro.bft.nondet.TimestampAgreement`.
"""

from __future__ import annotations

from typing import Dict, Optional

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
        max_clock_skew: float = 1.0,
    ) -> None:
        super().__init__(
            AbstractStateManager(wrapper.spec.num_objects, wrapper.get_obj, arity=arity)
        )
        self.wrapper = wrapper
        self.arity = arity
        wrapper.set_modify_callback(self.manager.modify)
        self.timestamps = TimestampAgreement(clock, max_skew=max_clock_skew)
        self._genesis_digest: Optional[bytes] = None

    def execute(self, op: bytes, client_id: str, nondet: bytes, read_only: bool = False) -> bytes:
        timestamp = self.timestamps.accept(nondet) if nondet else 0
        return self.wrapper.execute(op, client_id, timestamp, read_only=read_only)

    def put_objs(self, objects: Dict[int, bytes]) -> None:
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
