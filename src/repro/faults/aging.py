"""Fragmentation aging: latency degradation only proactive recovery clears.

The leak-style aging models (``_aging_threshold`` in the file servers and the
oodb) eventually *crash* the implementation, which the PR 3 reactive-repair
supervisor observes and fixes.  Fragmentation is the complementary failure
mode: the implementation's in-memory structures degrade with every executed
operation — allocator fragmentation, hash-table clustering, page-cache
pollution — so it gets *slower* without ever crashing and without ever
computing a wrong result.  Digests stay correct, so the scrubber sees
nothing; no crash happens, so reactive repair never fires; the only thing
that restores performance is the proactive watchdog rebuilding the service
from persistent state (a fresh instance starts unfragmented).

Mechanically, :class:`FragmentationAging` wraps an armed replica's network
delivery handler: each inbound message is deferred by a stall proportional
to the operations the *current service incarnation* has executed (capped at
``DEFAULT_STALL_CAP``).  A proactive recovery swaps in a fresh replica
handler and a fresh service — the periodic re-arm tick notices the swap,
re-wraps the new handler, and the stall restarts from zero because
``executed_ops`` does.
Everything is deterministic: no RNG, virtual-time only.
"""

from __future__ import annotations

from typing import Callable, Dict, List

#: Default per-executed-operation stall, virtual seconds.  Chosen so that a
#: rotation period's worth of soak load stays well under the request timer
#: while an unrotated replica degrades past client budgets over a couple of
#: virtual hours.
DEFAULT_PER_OP_STALL = 2e-5

#: Ceiling on the per-message stall, virtual seconds.
DEFAULT_STALL_CAP = 2.0

#: How often the re-arm tick checks for rebuilt replicas, virtual seconds.
REARM_INTERVAL = 0.25


class FragmentationAging:
    """Arms fragmentation aging on a cluster's replica hosts."""

    def __init__(
        self,
        cluster,
        per_op_stall: float = DEFAULT_PER_OP_STALL,
    ) -> None:
        if per_op_stall < 0:
            raise ValueError("per_op_stall must be >= 0")
        self.cluster = cluster
        self.per_op_stall = per_op_stall
        self._armed: List[str] = []
        self._wrappers: Dict[str, Callable] = {}
        self._running = False

    def current_stall(self, replica_id: str) -> float:
        """The stall the named replica's next message will suffer."""
        service = self.cluster.hosts[replica_id].service
        executed = getattr(service, "executed_ops", 0)
        return min(DEFAULT_STALL_CAP, self.per_op_stall * executed)

    def arm(self, *replica_ids: str) -> None:
        """Start aging the named replicas (all replicas when none named)."""
        targets = list(replica_ids) if replica_ids else sorted(self.cluster.hosts)
        for replica_id in targets:
            if replica_id not in self.cluster.hosts:
                raise KeyError(f"unknown replica {replica_id!r}")
            if replica_id not in self._armed:
                self._armed.append(replica_id)
                self._wrap(replica_id)
        if not self._running:
            self._running = True
            self.cluster.sim.schedule(REARM_INTERVAL, self._tick)

    def disarm(self) -> None:
        """Stop aging; wrappers already installed stay until the next reboot
        (their stall freezes at the current level) but are no longer
        re-armed."""
        self._running = False
        self._armed = []
        self._wrappers = {}

    # -- internals -----------------------------------------------------------

    def _wrap(self, replica_id: str) -> None:
        network = self.cluster.network
        host = self.cluster.hosts[replica_id]
        inner = network.handler(replica_id)
        counters = host.replica.counters

        def fragmented(message, src: str) -> None:
            stall = self.current_stall(replica_id)
            if stall <= 0.0:
                inner(message, src)
                return
            counters.add("aging_stalls")
            counters.add("aging_stall_us", int(stall * 1_000_000))
            self.cluster.sim.schedule(stall, lambda: inner(message, src))

        self._wrappers[replica_id] = fragmented
        network.replace_handler(replica_id, fragmented)

    def _tick(self) -> None:
        """Re-arm replicas whose handler was swapped by a reboot: the fresh
        incarnation starts unfragmented and begins aging anew."""
        if not self._running:
            return
        network = self.cluster.network
        for replica_id in self._armed:
            if network.handler(replica_id) is not self._wrappers.get(replica_id):
                self._wrap(replica_id)
        self.cluster.sim.schedule(REARM_INTERVAL, self._tick)
