"""Client-side op recording: the one always-on wrapper of the untraced run.

``AndrewBenchmark`` and ``run_soak`` issue their requests internally, so the
harness cannot time ops at its own call sites.  :class:`OpRecorder` wraps
``Client.invoke_async`` (every client-visible request goes through it, the
blocking ``invoke`` included) and ``ShardedClient.invoke_txn_async`` and
notes the virtual issue and completion instants.  It is installed on every
workload and on both sides of any comparison, so its cost cancels.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro.bft.client import Client
from repro.bft.sharding import ShardedClient
from repro.bft.txn import VoteClient


#: The host clock is read once per this many completions.  The op sequence
#: of a seed is deterministic, so these instants cut every repetition into
#: the same stretches of work (see ``measure.fastest_host_seconds``).
TICK_EVERY = 64


class OpRecorder:
    """Issue/completion instants (virtual seconds) of every client op.

    ``pause`` runs at every tick, between two stretches of work, and the time
    it takes is kept apart from them: the harness puts its calibration burst
    there, so the machine's speed is sampled right beside every stretch."""

    def __init__(self, pause: Callable[[], object] = lambda: None) -> None:
        self.pause = pause
        self._saved: List[Tuple[type, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh repetition: forget every op seen so far."""
        self.attempted = 0
        self.completions: List[Tuple[float, float]] = []  # (issued, completed)
        # Host clock at every TICK_EVERY-th completion, and after the pause.
        self.ticks: List[float] = []
        self.resumes: List[float] = []

    def install(self) -> None:
        recorder = self
        invoke_async = Client.invoke_async
        invoke_txn_async = ShardedClient.invoke_txn_async

        def recorded_invoke_async(self, op, callback, read_only=False):
            # A VoteClient carries one leg of a 2PC round (the transaction is
            # the op); a callback already recorded is the read-only fallback
            # re-issuing the same op as an ordered request.
            if isinstance(self, VoteClient) or getattr(callback, "_perf_op", False):
                return invoke_async(self, op, callback, read_only=read_only)
            return invoke_async(
                self, op, recorder._completing(self.sim, callback), read_only=read_only
            )

        def recorded_invoke_txn_async(self, writes, callback):
            return invoke_txn_async(
                self, writes, recorder._completing(self.sim, callback)
            )

        self._saved = [
            (Client, "invoke_async", invoke_async),
            (ShardedClient, "invoke_txn_async", invoke_txn_async),
        ]
        Client.invoke_async = recorded_invoke_async
        ShardedClient.invoke_txn_async = recorded_invoke_txn_async

    def uninstall(self) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)
        self._saved = []

    def _completing(self, sim, callback):
        self.attempted += 1
        issued = sim.now()

        def done(result):
            self.completions.append((issued, sim.now()))
            if len(self.completions) % TICK_EVERY == 0:
                self.ticks.append(time.perf_counter())
                self.pause()
                self.resumes.append(time.perf_counter())
            callback(result)

        done._perf_op = True
        return done

    def mark(self) -> Tuple[int, int]:
        """Position to measure a region from (pass to :meth:`region`)."""
        return self.attempted, len(self.completions)

    def region(
        self, mark: Tuple[int, int]
    ) -> Tuple[int, List[Tuple[float, float]], List[float], List[float]]:
        """Ops attempted since ``mark``, the completions among them, and the
        host-clock ticks and resumes taken since."""
        attempted, completed = mark
        return (
            self.attempted - attempted,
            self.completions[completed:],
            self.ticks[completed // TICK_EVERY:],
            self.resumes[completed // TICK_EVERY:],
        )


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list, as ``repro bench`` defines it."""
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def virtual_metrics(
    attempted: int,
    completions: List[Tuple[float, float]],
    started: float,
    ended: float,
    wrong: int = 0,
) -> Dict[str, float]:
    """The virtual-clock end-to-end metrics of one timed region."""
    latencies = sorted(done - issued for issued, done in completions)
    instants = sorted(done for _issued, done in completions)
    # A load that runs a little past its planned end (the soak probe finishes
    # its segment) ends the region when its last op completes.
    ended = max(ended, instants[-1])
    edges = [started] + instants + [ended]
    stall = max(later - earlier for earlier, later in zip(edges, edges[1:]))
    completed = len(completions) - wrong
    return {
        "ops": completed,
        "attempted": attempted,
        "failed": attempted - completed,
        "virtual_seconds": ended - started,
        "ops_per_vsec": completed / (ended - started),
        "latency_p50_vms": percentile(latencies, 0.50) * 1000.0,
        "latency_p99_vms": percentile(latencies, 0.99) * 1000.0,
        "max_stall_vms": stall * 1000.0,
        "latency_samples": len(latencies),
    }
