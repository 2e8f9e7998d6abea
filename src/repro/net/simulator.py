"""Discrete-event simulation kernel.

Owns the virtual clock, a priority queue of scheduled events, and the seeded
random number generator every nondeterministic component must draw from.
Determinism contract: two runs with the same seed and the same schedule of
API calls produce identical event orders (ties broken by insertion sequence,
unless a seeded tie-break shuffle is installed — see :meth:`set_tiebreak`).
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.util.clock import VirtualClock

# Compact the heap only past this many cancelled entries; below it the
# garbage is cheaper than the rebuild.
_COMPACT_MIN_CANCELLED = 64


class EventHandle:
    """Cancellable handle for a scheduled event.

    ``_sim`` is set only while the event sits in the simulator's queue: the
    simulator drops it when the event fires, so cancelling a fired handle
    never counts towards heap compaction.  ``_live`` is the owner's table of
    pending handles (see :meth:`repro.net.node.Node.set_timer`); a cancelled
    handle removes itself from it.
    """

    __slots__ = ("cancelled", "fire_at", "_sim", "_live")

    def __init__(self, fire_at: float, sim: "Optional[Simulator]" = None) -> None:
        self.cancelled = False
        self.fire_at = fire_at
        self._sim = sim
        self._live: Optional[Dict["EventHandle", None]] = None

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()
            if self._live is not None:
                self._live.pop(self, None)


class _SimClock(VirtualClock):
    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now


class Simulator:
    """Virtual-time event loop.

    Protocol code schedules callbacks with :meth:`schedule` and the test or
    benchmark harness drives the loop with :meth:`run` / :meth:`run_until` /
    :meth:`run_until_idle`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.clock: VirtualClock = _SimClock()
        self.rng = random.Random(seed)
        self._queue: List[Tuple[float, int, EventHandle, Callable[[], None]]] = []
        self._sequence = 0
        self._cancelled = 0
        self._step_hooks: List[Callable[[], None]] = []
        self._tiebreak_rng: Optional[random.Random] = None
        self._tiebreak_window = 1
        self.events_processed = 0

    def now(self) -> float:
        return self.clock.now()

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``delay`` virtual seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        fire_at = self.clock._now + delay  # type: ignore[attr-defined]
        handle = EventHandle(fire_at, self)
        heapq.heappush(self._queue, (fire_at, self._sequence, handle, callback))
        self._sequence += 1
        return handle

    # -- hooks -------------------------------------------------------------------

    def add_step_hook(self, hook: Callable[[], None]) -> Callable[[], None]:
        """Call ``hook()`` after every processed event (used by continuous
        safety oracles); returns a removal callback."""
        self._step_hooks.append(hook)

        def remove() -> None:
            if hook in self._step_hooks:
                self._step_hooks.remove(hook)

        return remove

    def set_tiebreak(self, rng: Optional[random.Random], window: int = 4) -> None:
        """Install a bounded tie-breaking shuffle for schedule exploration.

        When set, up to ``window`` events sharing the earliest fire time are
        popped as a group and one is chosen by ``rng`` instead of insertion
        order.  The shuffle is deterministic given the rng's seed — the point
        is to *perturb* the canonical schedule reproducibly, never to make it
        flaky.  Pass ``rng=None`` to restore strict insertion-order ties.
        """
        if window < 1:
            raise ValueError(f"tiebreak window must be >= 1: {window}")
        self._tiebreak_rng = rng
        self._tiebreak_window = window

    # -- queue bookkeeping ----------------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _note_removed_cancelled(self) -> None:
        if self._cancelled > 0:
            self._cancelled -= 1

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (sequence keys keep order)."""
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def _pop_ready(self) -> Optional[Tuple[float, Callable[[], None]]]:
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry[2].cancelled:
                self._note_removed_cancelled()
                continue
            if self._tiebreak_rng is not None:
                entry = self._tiebreak(entry)
            entry[2]._sim = None  # fired: a later cancel() is not heap garbage
            return entry[0], entry[3]
        return None

    def _tiebreak(self, entry: Tuple[float, int, EventHandle, Callable[[], None]]):
        """Pick one of up to ``window`` events tied at ``entry``'s fire time."""
        group = [entry]
        fire_at = entry[0]
        while self._queue and len(group) < self._tiebreak_window:
            head = self._queue[0]
            if head[2].cancelled:
                heapq.heappop(self._queue)
                self._note_removed_cancelled()
                continue
            if head[0] != fire_at:
                break
            group.append(heapq.heappop(self._queue))
        if len(group) == 1:
            return entry
        chosen = group.pop(self._tiebreak_rng.randrange(len(group)))
        for other in group:
            heapq.heappush(self._queue, other)
        return chosen

    def step(self) -> bool:
        """Process one event; return False when the queue is empty."""
        item = self._pop_ready()
        if item is None:
            return False
        fire_at, callback = item
        # Clock never runs backwards; events scheduled "now" keep time still.
        clock = self.clock
        if fire_at > clock._now:  # type: ignore[attr-defined]
            clock._now = fire_at  # type: ignore[attr-defined]
        self.events_processed += 1
        callback()
        if self._step_hooks:
            for hook in list(self._step_hooks):
                hook()
        return True

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the event queue; returns events processed."""
        count = 0
        while count < max_events and self.step():
            count += 1
        if count >= max_events:
            raise RuntimeError(f"simulator did not quiesce within {max_events} events")
        return count

    def run_until(self, deadline: float, max_events: int = 10_000_000) -> int:
        """Process events with fire time <= deadline, then set the clock there."""
        count = 0
        while self._queue and count < max_events:
            fire_at = self._peek_time()
            if fire_at is None or fire_at > deadline:
                break
            self.step()
            count += 1
        if count >= max_events:
            raise RuntimeError(f"simulator did not quiesce within {max_events} events")
        self.clock._now = max(self.clock.now(), deadline)  # type: ignore[attr-defined]
        return count

    def run_for(self, duration: float, max_events: int = 10_000_000) -> int:
        return self.run_until(self.now() + duration, max_events=max_events)

    def run_until_condition(
        self,
        predicate: Callable[[], object],
        timeout: float = 3600.0,
        max_events: int = 10_000_000,
    ) -> bool:
        """Step until ``predicate()`` is true; returns whether it became true
        within ``timeout`` of virtual time (``max_events`` spent first raises,
        as in :meth:`run_until`)."""
        deadline = self.now() + timeout
        count = 0
        if predicate():
            return True
        while self._queue and count < max_events:
            fire_at = self._peek_time()
            if fire_at is None or fire_at > deadline:
                break
            self.step()
            count += 1
            if predicate():
                return True
        if count >= max_events:
            raise RuntimeError(f"simulator did not quiesce within {max_events} events")
        return bool(predicate())

    def _peek_time(self) -> Optional[float]:
        while self._queue:
            fire_at, _seq, handle, _cb = self._queue[0]
            if handle.cancelled:
                heapq.heappop(self._queue)
                self._note_removed_cancelled()
                continue
            return fire_at
        return None

    def pending_events(self) -> int:
        return sum(1 for (_t, _s, h, _c) in self._queue if not h.cancelled)
