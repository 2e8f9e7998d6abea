"""Availability measurement under faults.

An :class:`AvailabilityProbe` issues a stream of operations against a
replicated service, one at a time, each with a virtual-time budget; an
operation that gets no reply quorum in time counts as an outage sample.
Benchmarks use the probe to measure availability across fault scenarios
(crash, Byzantine, aging, common-mode bugs) and during proactive-recovery
rotations.

The probe is *resumable*: :meth:`AvailabilityProbe.run` may be called any
number of times (the soak harness interleaves probe segments with campaign
bookkeeping) and every summary is computed over the accumulated sample
stream.  :meth:`AvailabilityProbe.summary` additionally buckets samples into
fixed-width *windows* of virtual time — the unit the availability SLO is
judged over — and coalesces adjacent outage samples into single spans (a
span covers first failure start through last failure end, so one long
outage probed five times is one span, not five).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.bft.client import Client, InvocationTimeout
from repro.net.simulator import Simulator
from repro.util.stats import percentile


@dataclass
class ProbeResult:
    """One probe sample."""

    started_at: float
    ok: bool
    latency: float


@dataclass
class WindowSummary:
    """Availability accounting over one fixed-width window of virtual time."""

    start: float
    end: float
    total: int
    succeeded: int
    availability: float
    p99_latency: float

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "total": self.total,
            "succeeded": self.succeeded,
            "availability": self.availability,
            "p99_latency": self.p99_latency,
        }


@dataclass
class AvailabilitySummary:
    total: int
    succeeded: int
    availability: float
    mean_latency: float
    max_latency: float
    outage_spans: List[Tuple[float, float]]
    windows: List[WindowSummary] = field(default_factory=list)

    def min_window_availability(self) -> float:
        """The worst window's availability (1.0 when unwindowed/empty)."""
        if not self.windows:
            return 1.0
        return min(window.availability for window in self.windows)

    def max_outage_span(self) -> float:
        """Duration of the longest coalesced outage span (0.0 when none)."""
        if not self.outage_spans:
            return 0.0
        return max(end - start for start, end in self.outage_spans)


class AvailabilityProbe:
    """Sequential operation stream with per-operation timeouts.

    ``window`` (virtual seconds, 0 disables) buckets samples into
    fixed-width windows anchored at ``window_origin`` for the summary's
    per-window accounting.  The probe keeps a running operation counter, so
    repeated :meth:`run` calls continue the same stream (unique ops per
    call, one accumulated result list).  The accounting is kept as samples
    arrive: ``buckets`` holds one ``(window index, samples)`` pair per window
    that has any, in order, and ``outage_spans`` the coalesced outages — a
    run of adjacent failed samples is one span, from the first failure's
    start to the last failure's end (start + latency).
    """

    def __init__(
        self,
        sim: Simulator,
        client: Client,
        make_op: Callable[[int], bytes],
        op_timeout: float = 2.0,
        gap: float = 0.01,
        window: float = 0.0,
        window_origin: float = 0.0,
    ) -> None:
        self.sim = sim
        self.client = client
        self.make_op = make_op
        self.op_timeout = op_timeout
        self.gap = gap
        self.window = window
        self.window_origin = window_origin
        self.results: List[ProbeResult] = []
        self.buckets: List[Tuple[int, List[ProbeResult]]] = []
        self.outage_spans: List[Tuple[float, float]] = []
        self._op_number = 0

    def run(self, ops: int) -> None:
        """Probe ``ops`` more operations; resumable across soak segments."""
        for _ in range(ops):
            start = self.sim.now()
            try:
                self.client.invoke(self.make_op(self._op_number), timeout=self.op_timeout)
                ok = True
            except InvocationTimeout:
                self.client.cancel()
                ok = False
            self._op_number += 1
            self._record(ProbeResult(start, ok, self.sim.now() - start))
            if self.gap:
                self.sim.run_for(self.gap)

    def run_until(self, deadline: float, ops_per_segment: int = 32) -> None:
        """Probe in segments until the virtual clock reaches ``deadline``."""
        while self.sim.now() < deadline:
            self.run(ops_per_segment)

    # -- accounting ----------------------------------------------------------

    def _record(self, result: ProbeResult) -> None:
        failing = bool(self.results) and not self.results[-1].ok
        self.results.append(result)
        if self.window > 0:
            index = int((result.started_at - self.window_origin) // self.window)
            if not self.buckets or self.buckets[-1][0] != index:
                self.buckets.append((index, []))
            self.buckets[-1][1].append(result)
        if not result.ok:
            end = result.started_at + result.latency
            start = self.outage_spans.pop()[0] if failing else result.started_at
            self.outage_spans.append((start, end))

    def window_summary(self, index: int, samples: List[ProbeResult]) -> WindowSummary:
        """The accounting of one bucket, window ``index`` of the grid."""
        start = self.window_origin + index * self.window
        succeeded = sum(1 for sample in samples if sample.ok)
        return WindowSummary(
            start=start,
            end=start + self.window,
            total=len(samples),
            succeeded=succeeded,
            availability=succeeded / len(samples),
            p99_latency=percentile([s.latency for s in samples if s.ok], 0.99),
        )

    def summary(self) -> AvailabilitySummary:
        total = len(self.results)
        succeeded = sum(1 for r in self.results if r.ok)
        latencies = [r.latency for r in self.results if r.ok]
        return AvailabilitySummary(
            total=total,
            succeeded=succeeded,
            availability=(succeeded / total) if total else 1.0,
            mean_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
            max_latency=max(latencies) if latencies else 0.0,
            outage_spans=list(self.outage_spans),
            windows=[self.window_summary(*bucket) for bucket in self.buckets],
        )
