"""Node base class: identity, timers, and send/multicast primitives.

Both BFT replicas and BFT clients derive from :class:`Node`.  A node's
``on_message`` is its single network entry point; timers are simulator events
that auto-deregister when the node is stopped (e.g. across a simulated
reboot).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence

from repro.net.network import Network
from repro.net.simulator import EventHandle, Simulator


class Node:
    """A network endpoint with virtual-time timers."""

    def __init__(
        self, node_id: str, sim: Simulator, network: Network, takeover: bool = False
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        # Pending timers only, in the order they were set: a handle leaves
        # when it fires or is cancelled.
        self._timers: Dict[EventHandle, None] = {}
        self._stopped = False
        if takeover:
            # A rebooted node reclaims its network registration.
            network.replace_handler(node_id, self._receive)
        else:
            network.register(node_id, self._receive)

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Cancel all timers and ignore all future deliveries."""
        self._stopped = True
        for handle in list(self._timers):
            handle.cancel()

    # -- timers --------------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback``; automatically inert once the node stops."""

        def guarded() -> None:
            del self._timers[handle]
            if not self._stopped:
                callback()

        handle = self.sim.schedule(delay, guarded)
        handle._live = self._timers
        self._timers[handle] = None
        return handle

    def now(self) -> float:
        return self.sim.now()

    # -- messaging -----------------------------------------------------------

    def send(self, dst: str, message: Any) -> None:
        if not self._stopped:
            self.network.send(self.node_id, dst, message)

    def multicast(self, dsts: Sequence[str], message: Any) -> None:
        if not self._stopped:
            self.network.multicast(self.node_id, dsts, message)

    def _receive(self, message: Any, src: str) -> None:
        if not self._stopped:
            self.on_message(message, src)

    def on_message(self, message: Any, src: str) -> None:
        raise NotImplementedError
