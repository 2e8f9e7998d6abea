"""Lightweight metric counters.

Benchmarks measure protocol-level costs (messages sent, bytes on the wire,
MAC computations, digests, state-transfer traffic) rather than wall-clock
time, because the substrate is a simulator.  Every component that incurs such
a cost increments a :class:`Counters` instance; harnesses snapshot and diff
them around a measured region.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Mapping, Sequence, Tuple


class Counters:
    """A named bag of monotonically increasing integer counters."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self._values[name] += amount

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A point-in-time copy of every counter."""
        return dict(self._values)

    def diff(self, earlier: Mapping[str, int]) -> Dict[str, int]:
        """Counter increase since an earlier :meth:`snapshot`."""
        out: Dict[str, int] = {}
        for name, value in self._values.items():
            delta = value - earlier.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def merge(self, other: "Counters") -> None:
        """Fold another bag's totals into this one."""
        for name, value in other._values.items():
            self._values[name] += value

    def clear(self) -> None:
        self._values.clear()

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._values.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"Counters({inner})"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile of ``values`` (deterministic, no
    interpolation surprises); 0.0 when there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]
