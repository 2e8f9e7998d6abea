"""Message-passing network with latency, jitter, loss, partitions, and
interception hooks.

Delivery model mirrors UDP (what BFT uses for normal-case traffic): messages
may be dropped or arrive reordered; they are never corrupted in flight by the
*network* itself (corruption is an interceptor's job — Byzantine behaviour is
modelled explicitly, not as line noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.net.simulator import Simulator
from repro.util.stats import Counters

# An interceptor sees (src, dst, message) before delivery and returns either
# the (possibly replaced) message, or None to swallow it.
Interceptor = Callable[[str, str, Any], Optional[Any]]
Handler = Callable[[Any, str], None]


@dataclass
class NetworkConfig:
    """Link parameters applied to every message unless overridden per-pair.

    delay:      one-way base latency, virtual seconds.
    jitter:     uniform extra latency in [0, jitter].
    drop_rate:  probability a message is silently dropped.
    bandwidth:  link capacity in bytes per virtual second; 0 means infinite
                (the default — no serialization delay, no queueing).
    queue_bytes: max backlog a directed link will queue before tail-dropping
                (``messages_dropped_link_overflow``); 0 means unbounded.
                Only meaningful when ``bandwidth`` is finite.
    """

    delay: float = 0.0005
    jitter: float = 0.0001
    drop_rate: float = 0.0
    bandwidth: float = 0.0
    queue_bytes: int = 0


def wire_size(message: Any) -> int:
    """Bytes a message occupies on the wire.

    Messages may expose ``wire_size()``; anything else is charged a small
    fixed overhead (used only for byte accounting, never for correctness).
    """
    method = getattr(message, "wire_size", None)
    if callable(method):
        return int(method())
    return 64


class Network:
    """The simulated network connecting clients and replicas."""

    def __init__(self, sim: Simulator, config: Optional[NetworkConfig] = None) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        self._handlers: Dict[str, Handler] = {}
        self._pair_overrides: Dict[Tuple[str, str], NetworkConfig] = {}
        self._partitions: List[FrozenSet[str]] = []
        # Directed link -> number of overlapping cuts currently severing it.
        # Cuts stack: two storms cutting the same link must both be restored
        # before traffic flows again (unlike partition(), which replaces any
        # existing partition wholesale).
        self._cut_links: Dict[Tuple[str, str], int] = {}
        self._down: Set[str] = set()
        self._interceptors: List[Interceptor] = []
        # Per directed link: virtual time until which the link is busy
        # serializing earlier messages (capacity model; empty when every
        # link has infinite bandwidth).
        self._link_busy_until: Dict[Tuple[str, str], float] = {}
        self.counters = Counters()

    # -- membership ---------------------------------------------------------

    def register(self, node_id: str, handler: Handler) -> None:
        if node_id in self._handlers:
            raise ValueError(f"duplicate node id {node_id!r}")
        self._handlers[node_id] = handler

    def replace_handler(self, node_id: str, handler: Handler) -> None:
        """Swap the delivery target for a node (used when a replica reboots)."""
        if node_id not in self._handlers:
            raise KeyError(node_id)
        self._handlers[node_id] = handler

    def node_ids(self) -> List[str]:
        return sorted(self._handlers)

    def handler(self, node_id: str) -> Handler:
        """The current delivery target for a node (fault models wrap it)."""
        return self._handlers[node_id]

    # -- failure / topology control -----------------------------------------

    def set_down(self, node_id: str, down: bool = True) -> None:
        """A down node neither sends nor receives (crash fault / reboot)."""
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    def is_down(self, node_id: str) -> bool:
        return node_id in self._down

    def partition(self, *groups: Sequence[str]) -> None:
        """Split nodes into isolated groups; traffic crosses groups never.

        Nodes not named in any group keep full connectivity.
        """
        self._partitions = [frozenset(g) for g in groups]

    def heal_partition(self) -> None:
        self._partitions = []

    def _partitioned(self, src: str, dst: str) -> bool:
        src_group = dst_group = None
        for group in self._partitions:
            if src in group:
                src_group = group
            if dst in group:
                dst_group = group
        if src_group is None or dst_group is None:
            # Unlisted nodes (e.g. clients) keep full connectivity.
            return False
        return src_group is not dst_group

    def cut_links(self, links: Sequence[Tuple[str, str]]) -> None:
        """Sever a set of directed links.  Cuts compose: overlapping cut
        sets stack on shared links, and each set heals independently via
        :meth:`restore_links` — the storm primitives, orthogonal to the
        wholesale :meth:`partition`/:meth:`heal_partition` pair."""
        for link in links:
            self._cut_links[link] = self._cut_links.get(link, 0) + 1

    def restore_links(self, links: Sequence[Tuple[str, str]]) -> None:
        """Undo one :meth:`cut_links` call's worth of cuts on each link; a
        link stays severed while any other overlapping cut still holds it."""
        for link in links:
            count = self._cut_links.get(link, 0) - 1
            if count <= 0:
                self._cut_links.pop(link, None)
            else:
                self._cut_links[link] = count

    def is_cut(self, src: str, dst: str) -> bool:
        return (src, dst) in self._cut_links

    def set_link(self, src: str, dst: str, config: NetworkConfig) -> None:
        """Override parameters for one directed pair."""
        self._pair_overrides[(src, dst)] = config

    def link_config(self, src: str, dst: str) -> NetworkConfig:
        """Effective parameters for one directed pair."""
        return self._pair_overrides.get((src, dst), self.config)

    def add_interceptor(self, interceptor: Interceptor) -> Callable[[], None]:
        """Install a Byzantine/fault hook; returns a removal callback."""
        self._interceptors.append(interceptor)

        def remove() -> None:
            if interceptor in self._interceptors:
                self._interceptors.remove(interceptor)

        return remove

    # -- transmission --------------------------------------------------------

    def send(self, src: str, dst: str, message: Any, size: Optional[int] = None) -> None:
        """Queue a one-way message from src to dst.  ``size`` is the
        message's :func:`wire_size` when the caller already has it."""
        if dst not in self._handlers:
            raise KeyError(f"unknown destination {dst!r}")
        counters = self.counters
        counters.add("messages_sent")
        sent = message
        if size is None:
            size = wire_size(sent)
        counters.add("bytes_sent", size)
        if src in self._down:
            counters.add("messages_dropped_sender_down")
            return
        # The fault tables are empty on most sends of most runs; each is
        # consulted only while it holds something.
        if self._partitions and self._partitioned(src, dst):
            counters.add("messages_dropped_partition")
            return
        if self._cut_links and (src, dst) in self._cut_links:
            counters.add("messages_dropped_cut")
            return
        if self._interceptors:
            for interceptor in list(self._interceptors):
                message = interceptor(src, dst, message)
                if message is None:
                    counters.add("messages_intercepted")
                    return
        config = self.config
        if self._pair_overrides:
            config = self._pair_overrides.get((src, dst), config)
        rng = self.sim.rng
        if config.drop_rate and rng.random() < config.drop_rate:
            counters.add("messages_dropped_loss")
            return
        latency = config.delay
        if config.jitter:
            # rng.uniform(0.0, jitter), bit for bit, without its frame.
            latency += config.jitter * rng.random()
        if config.bandwidth > 0.0:
            # Finite link capacity: messages serialize one after another at
            # ``bandwidth`` bytes/vsec; the backlog is the queue.  A bounded
            # queue tail-drops (this is how overload becomes producible).
            if message is not sent:
                size = wire_size(message)  # an interceptor replaced it
            now = self.sim.now()
            start = max(now, self._link_busy_until.get((src, dst), now))
            backlog_bytes = (start - now) * config.bandwidth
            if config.queue_bytes and backlog_bytes + size > config.queue_bytes:
                counters.add("messages_dropped_link_overflow")
                return
            serialization = size / config.bandwidth
            self._link_busy_until[(src, dst)] = start + serialization
            latency += (start - now) + serialization
        self.sim.schedule(latency, lambda: self._deliver(src, dst, message))

    def multicast(self, src: str, dsts: Sequence[str], message: Any) -> None:
        """``send`` to every one of ``dsts`` but ``src``.  The size does not
        depend on the recipient, so it is taken once, at the first one."""
        size = None
        for dst in dsts:
            if dst != src:
                if size is None:
                    size = wire_size(message)
                self.send(src, dst, message, size)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        if dst in self._down:
            self.counters.add("messages_dropped_receiver_down")
            return
        if self._partitions and self._partitioned(src, dst):
            self.counters.add("messages_dropped_partition")
            return
        if self._cut_links and (src, dst) in self._cut_links:
            self.counters.add("messages_dropped_cut")
            return
        self.counters.add("messages_delivered")
        self._handlers[dst](message, src)
