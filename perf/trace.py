"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each layer — set on the
classes (and module bindings) before the run, restored after — and charges
host time to layers by *self time*: a span's duration minus the part its
child spans cover.  The simulator is single-threaded, so the enclosing span
is simply the top of a plain Python stack.  No file under ``src/`` knows any
of this exists.

Layer names are the repo's modules; :data:`ENTRY_POINTS` lists what is
wrapped for each.  Timer callbacks registered through ``Node.set_timer`` are
wrapped as they are registered, so their time is charged to the replica or
client that owns the timer and not to ``sim``.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.base.statemgr import AbstractStateManager
from repro.base.library import BASEService
from repro.bft import messages
from repro.bft.client import Client
from repro.bft.recovery import ReplicaHost
from repro.bft.replica import Replica
from repro.bft.sharding import ShardedClient
from repro.bft.statetransfer import StateTransferManager
from repro.bft.testing import KVStateMachine, RecordingKV
from repro.bft.txn import TxnParticipant
from repro.crypto.auth import KeyTable
from repro.crypto.sign import SignatureScheme, Signer
from repro.explore.oracles import OracleSuite
from repro.faults.scenarios import AvailabilityProbe
from repro.net.network import Network
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.nfs.protocol import NfsCall, NfsReply
from repro.nfs.wrapper import NFSConformanceWrapper

# ``repro.crypto`` rebinds the name ``digest`` to the function; fetch the module.
digest_module = importlib.import_module("repro.crypto.digest")

LAYERS = (
    "sim",
    "net",
    "crypto",
    "codec",
    "replica",
    "client",
    "statemgr",
    "statetransfer",
    "service",
    "txn",
    "oracle",
)


def _message_classes() -> List[type]:
    found: List[type] = []
    pending = [messages.Message]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


def _codec_points() -> List[Tuple[str, object, str]]:
    points: List[Tuple[str, object, str]] = []
    for cls in _message_classes():
        for name in ("signable_bytes", "wire_size"):
            if name in cls.__dict__:
                points.append(("codec", cls, name))
    for cls in (NfsCall, NfsReply):
        points += [("codec", cls, "encode"), ("codec", cls, "decode")]
    return points


#: (layer, owner, attribute).  An owner is a class or a module; a module
#: function is also rebound in every ``repro`` module that imported it by name.
ENTRY_POINTS: List[Tuple[str, object, str]] = [
    ("sim", Simulator, "step"),
    ("sim", Simulator, "schedule"),
    ("net", Network, "send"),
    ("net", Network, "multicast"),
    ("crypto", KeyTable, "make_authenticator"),
    ("crypto", KeyTable, "check_authenticator"),
    ("crypto", Signer, "sign"),
    ("crypto", SignatureScheme, "verify"),
    ("crypto", digest_module, "digest"),
    ("crypto", digest_module, "combine_digests"),
    *_codec_points(),
    ("replica", Replica, "on_message"),
    ("client", Client, "invoke_async"),
    ("client", Client, "on_message"),
    ("statemgr", AbstractStateManager, "modify"),
    ("statemgr", AbstractStateManager, "take_checkpoint"),
    ("statemgr", AbstractStateManager, "discard_checkpoints_below"),
    ("statemgr", AbstractStateManager, "get_meta"),
    ("statemgr", AbstractStateManager, "get_object_at"),
    ("statemgr", AbstractStateManager, "install_fetched"),
    ("statetransfer", StateTransferManager, "on_message"),
    ("statetransfer", StateTransferManager, "start"),
    ("statetransfer", ReplicaHost, "recover_now"),
    ("service", KVStateMachine, "execute"),
    ("service", RecordingKV, "execute"),
    ("service", BASEService, "execute"),
    ("service", NFSConformanceWrapper, "get_obj"),
    ("service", NFSConformanceWrapper, "put_objs"),
    ("txn", TxnParticipant, "execute"),
    ("oracle", OracleSuite, "check_now"),
    ("oracle", AvailabilityProbe, "run_until"),
]

#: Entry points whose individual span durations are kept (in call order).
KEEP_DURATIONS = {"OracleSuite.check_now"}


def _point_name(owner: object, attribute: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__name__}.{attribute}"
    return attribute


class Tracer:
    """Span accounting: per entry point calls, inclusive and self seconds."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, raw_events: int = 2000
    ) -> None:
        self.clock = clock
        self.raw_events = raw_events
        # (layer, entry point) -> [calls, inclusive seconds, self seconds]
        self.points: Dict[Tuple[str, str], List[float]] = {}
        self.durations: Dict[str, List[float]] = {}
        # Raw spans of the first ``raw_events`` simulator events:
        # (span id, parent id, layer, entry point, start, duration, event).
        self.raw: List[Tuple[int, int, str, str, float, float, int]] = []
        self.event = 0  # simulator events started so far
        self.top_s = 0.0  # seconds under outermost spans
        self._stack: List[List[float]] = []  # [child seconds, span id]
        self._spans = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable, is_event: bool = False) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        stat = self.points.setdefault((layer, name), [0, 0.0, 0.0])
        kept = self.durations.setdefault(name, []) if name in KEEP_DURATIONS else None
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if is_event:
                self.event += 1
            self._spans += 1
            frame = [0.0, self._spans]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                else:
                    self.top_s += duration
                if kept is not None:
                    kept.append(duration)
                if self.event <= self.raw_events:
                    self.raw.append(
                        (
                            frame[1],
                            parent[1] if parent is not None else 0,
                            layer,
                            name,
                            start,
                            duration,
                            self.event,
                        )
                    )

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (call between spans only)."""
        for stat in self.points.values():
            stat[:] = [0, 0.0, 0.0]
        for kept in self.durations.values():
            del kept[:]
        del self.raw[:]
        self.event = 0
        self.top_s = 0.0
        self._spans = 0

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        for layer, owner, attribute in ENTRY_POINTS:
            self._patch(layer, owner, attribute)
        self._patch_timers()
        self._patch_txn_callback()

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch(self, layer: str, owner: object, attribute: str) -> None:
        original = owner.__dict__[attribute]
        name = _point_name(owner, attribute)
        is_event = owner is Simulator and attribute == "step"
        if isinstance(original, staticmethod):
            self._set(owner, attribute, staticmethod(self.wrap(layer, name, original.__func__)))
        elif isinstance(owner, type):
            self._set(owner, attribute, self.wrap(layer, name, original, is_event=is_event))
        else:
            traced = self.wrap(layer, name, original)
            # ``from module import name`` copied the binding: rebind every copy.
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attribute) is original
                ):
                    self._set(module, attribute, traced)

    def _patch_timers(self) -> None:
        set_timer = Node.set_timer
        tracer = self

        def traced_set_timer(self, delay, callback):
            if isinstance(self, Replica):
                callback = tracer.wrap("replica", "Replica.timer", callback)
            elif isinstance(self, Client):
                callback = tracer.wrap("client", "Client.timer", callback)
            return set_timer(self, delay, callback)

        self._set(Node, "set_timer", traced_set_timer)

    def _patch_txn_callback(self) -> None:
        invoke_txn_async = ShardedClient.invoke_txn_async
        tracer = self
        name = "ShardedClient.invoke_txn_async"

        def start(self, writes, callback):
            return invoke_txn_async(
                self, writes, tracer.wrap("txn", name + ".callback", callback)
            )

        self._set(ShardedClient, "invoke_txn_async", self.wrap("txn", name, start))

    def result(self) -> "TraceResult":
        """A frozen copy of what has been recorded (the wrappers stay
        installed and keep counting, e.g. through the output checks)."""
        return TraceResult(
            {key: tuple(stat) for key, stat in self.points.items()},
            {name: list(kept) for name, kept in self.durations.items()},
            list(self.raw),
            self.top_s,
        )


class TraceResult:
    """What one traced region recorded."""

    def __init__(self, points, durations, raw, top_s) -> None:
        self.points: Dict[Tuple[str, str], Tuple[int, float, float]] = points
        self.durations: Dict[str, List[float]] = durations
        self.raw = raw
        self.top_s: float = top_s

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` for every layer, zeros included."""
        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for (layer, _name), (calls, _inclusive, self_s) in self.points.items():
            table[layer]["self_s"] += self_s
            table[layer]["calls"] += calls
        return table

    def point(self, name: str) -> Tuple[int, float]:
        """(calls, inclusive seconds) of one entry point, summed over layers."""
        calls, inclusive = 0, 0.0
        for (_layer, point), stat in self.points.items():
            if point == name:
                calls += stat[0]
                inclusive += stat[1]
        return calls, inclusive

    def chrome_events(self) -> List[Dict[str, object]]:
        """The raw spans in Chrome trace-event form (chrome://tracing)."""
        if not self.raw:
            return []
        origin = min(span[4] for span in self.raw)
        return [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {"span": span, "parent": parent, "event": event},
            }
            for span, parent, layer, name, start, duration, event in sorted(self.raw)
        ]
