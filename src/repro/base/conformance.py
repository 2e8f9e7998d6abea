"""One conformance harness for every wrapper (paper sections 2.1 and 3.4).

:func:`check` runs a script from :func:`draw_script` (a ``random.Random``
only, so code outside the tests can run it) through one wrapper per vendor
factory (``make(disk) -> wrapper``) at the same agreed timestamps:

* agreement: after every op, the replies and all abstract objects are equal;
* modify discipline: each object an op changed was passed to ``modify``;
* inverse: after every op, the first wrapper's non-initial objects are
  installed with ``put_objs`` into a fresh wrapper of the last factory, which
  must then hold the same state and answer the rest of the script alike;
* rebuild: after ``save_for_recovery``, the same factory rebuilds a wrapper
  with the same state over the same disk.
"""

from __future__ import annotations

import random
from functools import partialmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.base.wrapper import ConformanceWrapper
from repro.util.xdr import XdrEncoder

Factory = Callable[[dict], ConformanceWrapper]

_STRINGS = ("", "a", "b", "c", "ab", "é", "名前")  #: few, so names collide and error paths run


class _Draws:
    """What :meth:`repro.util.xdr.Kind.drawn` reads: strings from a small pool, ids
    ⟨index, generation⟩ (section 3.1): the root half the time, else a generation below 4."""

    def __init__(self, rng: random.Random, num_objects: int) -> None:
        self.rng, self.num_objects = rng, num_objects

    def number(self, bits: int, signs: Tuple[int, ...] = (1,)) -> int:
        """Below 128 three times in four, else of any width up to ``bits``."""
        width = self.rng.randrange(bits + 1 if self.rng.random() < 0.25 else 8)
        return self.rng.randrange(1 << width) * self.rng.choice(signs)

    unpack_u32, unpack_i64 = partialmethod(number, 32), partialmethod(number, 32, (1, -1))
    unpack_u64 = partialmethod(number, 16)  # may be a file size or offset, which vendors allocate

    def unpack_bool(self) -> bool:
        return self.rng.random() < 0.5

    def unpack_fixed_opaque(self, size: int) -> bytes:
        return self.rng.randbytes(size)

    def unpack_opaque(self) -> bytes:
        return self.rng.randbytes(self.number(7))

    def unpack_string(self) -> str:
        return self.rng.choice(_STRINGS)

    def unpack_array(self, unpack_item: Callable[["_Draws"], object]) -> list:
        return [unpack_item(self) for _ in range(self.number(7))]

    def handle(self) -> Tuple[int, int]:  # the root is ⟨0, 0⟩
        return (0, 0) if self.unpack_bool() else (self.rng.randrange(self.num_objects), self.rng.randrange(4))


def draw_script(ops: Dict, rng: random.Random, num_objects: int, length: int) -> List[object]:
    """``length`` records of ops drawn from ``ops`` (checks run per op: no prefix is missed)."""
    source, classes = _Draws(rng, num_objects), list(ops.values())
    return [rng.choice(classes).draw(source) for _ in range(length)]


class _Run:
    """One wrapper, the objects ``modify`` named in the current op, its state."""

    def __init__(self, label: str, make: Factory, disk: dict, installed=None) -> None:
        self.label, self.make, self.disk, self.modified = label, make, disk, set()
        self.wrapper = make(disk)
        self.wrapper.set_modify_callback(self.modified.add)
        if installed is not None:
            self.wrapper.put_objs(installed)
        self.state = self.abstract()

    def abstract(self) -> List[bytes]:
        return [self.wrapper.get_obj(index) for index in range(self.wrapper.spec.num_objects)]

    def differs_from(self, other: "_Run") -> Optional[str]:
        for index, (mine, theirs) in enumerate(zip(self.state, other.state)):
            if mine != theirs:
                return f"object {index} of {self.label} differs from {other.label}'s"
        return None


def check(factories: Sequence[Factory], script: Sequence[object]) -> Optional[str]:
    """The first problem ``script`` shows (its step, op and object), or ``None``."""
    runs = [_Run(f"vendor {i}", make, {}) for i, make in enumerate(factories)]
    first, initial = runs[0], runs[0].wrapper.spec.initial_object
    for step, op in enumerate(script):
        at, timestamp = f"step {step} {op}", 1_000_000 + step * 1000
        for run in runs:
            run.modified.clear()
            run.reply = run.wrapper.execute(XdrEncoder.encode(op), "C0", timestamp)
            before, run.state = run.state, run.abstract()
            if run.reply != first.reply:
                return f"{at}: the reply of {run.label} differs from {first.label}'s"
            for index, (old, new) in enumerate(zip(before, run.state)):
                if old != new and index not in run.modified:
                    return f"{at}: object {index} of {run.label} changed without modify"
            if problem := run.differs_from(first):
                return f"{at}: {problem}"
        delta = {i: blob for i, blob in enumerate(first.state) if blob != initial(i)}
        runs.append(_Run(f"the wrapper installed after step {step}", factories[-1], {}, delta))
        if problem := runs[-1].differs_from(first):
            return f"put_objs after {at}: {problem}"
    for run in runs:
        run.wrapper.save_for_recovery()
        if problem := _Run(f"{run.label} rebuilt", run.make, run.disk).differs_from(run):
            return f"after the script: {problem}"
    return None
