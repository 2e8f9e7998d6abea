"""Overload robustness: bounded admission in front of ``Replica.pending``,
and the policy a replica follows once it is saturated.

A replica's pending-request queue used to be an unbounded ``OrderedDict``:
the first saturation event would grow it without bound, stall execution, trip
request timers, and turn a perfectly correct primary into a view-change storm.
This module bounds it with a deterministic shedding policy:

* **never protocol messages** — only client requests pass through admission;
  pre-prepares, prepares, commits, checkpoints etc. are untouched;
* **per-client cap** (``admission_per_client``) — one flooding client sheds
  its own newest requests before it can displace anyone else's;
* **fair drop-newest at capacity** (``admission_capacity``) — when the whole
  queue is full, the *newest* request of the currently *heaviest* client is
  evicted (ties broken by client id), so light clients keep their place;
* **TTL expiry** (``pending_ttl``) — entries a client stops refreshing by
  retransmission are expired, so an abandoned request cannot pin the request
  timer (and hence the view-change machinery) forever.

The queue stays FIFO by *enqueue* time: a retransmission refreshes an entry's
liveness but never improves its position, which is what makes batching fair —
a hot client's back-to-back stream cannot push a slow client's older request
out of the next batch.

:class:`OverloadPolicy` is the replica's side of the same feature: what it
tells the client about a shed request (``Busy``), and whether an expired
request timer means a faulty primary or a busy one (anti-storm damping, the
request relay).

:class:`OpenLoopLoadGenerator` is the matching traffic source: a swarm of
clients issuing at a fixed offered rate regardless of completions (open loop),
used by the ``overload`` explore step and the ``overload`` bench suite to
actually produce saturation inside the deterministic simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.bft.messages import Busy, Request
from repro.net.simulator import EventHandle, Simulator

if TYPE_CHECKING:
    from repro.bft.replica import Replica

Key = Tuple[str, int]

#: How many request-timer periods back a commit may lie and still count as
#: "the primary is alive, just saturated" for anti-storm damping.  A valid
#: timer firing proves no commit landed within the current period (execution
#: re-arms the timer), so the window must exceed one period to be satisfiable.
DAMPING_WINDOW_FACTOR = 2.0

#: Consecutive damped timer firings allowed while the oldest queued request
#: makes no progress; after that a view change proceeds even under load (the
#: starvation escape hatch).
DAMPING_STREAK_MAX = 8

#: Entries examined from the queue front per admission when looking for
#: TTL-stale entries; bounds per-message work at O(1).
EXPIRY_SWEEP_LIMIT = 8


class _Entry:
    __slots__ = ("request", "enqueued_at", "last_seen")

    def __init__(self, request, enqueued_at: float) -> None:
        self.request = request
        self.enqueued_at = enqueued_at
        self.last_seen = enqueued_at


class AdmissionOutcome:
    """What one :meth:`AdmissionQueue.admit` call did.

    admitted:   the request now occupies a queue slot.
    refreshed:  it was already queued; its TTL clock was reset.
    shed_reason: "" if admitted/refreshed, else ``"client_cap"`` or
                ``"capacity"`` — the request was dropped (the caller decides
                whether to answer Busy).
    expired:    keys removed by the TTL sweep during this call.
    evicted:    key evicted (heaviest client's newest) to make room, if any.
    """

    __slots__ = ("admitted", "refreshed", "shed_reason", "expired", "evicted")

    def __init__(self) -> None:
        self.admitted = False
        self.refreshed = False
        self.shed_reason = ""
        self.expired: List[Key] = []
        self.evicted: Optional[Key] = None

    @property
    def shed(self) -> bool:
        return bool(self.shed_reason)


class AdmissionQueue:
    """Bounded FIFO of client requests keyed by ``(client_id, reqid)``.

    Drop-in for the mapping surface ``Replica`` uses on its ``pending``
    queue (``in``, ``bool``, ``len``, iteration over keys in FIFO order,
    ``pop``, ``clear``) plus the admission policy itself."""

    def __init__(self, capacity: int, per_client: int, ttl: float) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if per_client < 1:
            raise ValueError("per_client must be >= 1")
        self.capacity = capacity
        self.per_client = per_client
        self.ttl = ttl
        self._entries: "OrderedDict[Key, _Entry]" = OrderedDict()
        self._per_client: Dict[str, int] = {}

    # -- mapping surface used by Replica ------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def pop(self, key: Key, *default):
        entry = self._entries.pop(key, None)
        if entry is None:
            if default:
                return default[0]
            raise KeyError(key)
        self._drop_count(key[0])
        return entry.request

    def clear(self) -> None:
        self._entries.clear()
        self._per_client.clear()

    def get(self, key: Key):
        entry = self._entries.get(key)
        return None if entry is None else entry.request

    def oldest_key(self) -> Optional[Key]:
        for key in self._entries:
            return key
        return None

    def queued_for(self, client_id: str) -> int:
        return self._per_client.get(client_id, 0)

    # -- admission policy ----------------------------------------------------

    def admit(self, request, now: float) -> AdmissionOutcome:
        outcome = AdmissionOutcome()
        key = (request.client_id, request.reqid)
        entry = self._entries.get(key)
        if entry is not None:
            # Retransmission of a queued request: refresh liveness, keep the
            # original FIFO position (retransmitting buys no priority).
            entry.last_seen = now
            outcome.refreshed = True
            return outcome

        self._expire_stale(now, outcome)

        if self._per_client.get(request.client_id, 0) >= self.per_client:
            outcome.shed_reason = "client_cap"
            return outcome

        if len(self._entries) >= self.capacity:
            victim = self._heaviest_client()
            if victim is None or self._per_client.get(
                request.client_id, 0
            ) + 1 >= self._per_client[victim]:
                # The newcomer would itself be (or tie) the heaviest: shed it
                # rather than churn someone else's slot.
                outcome.shed_reason = "capacity"
                return outcome
            evicted = self._newest_key_of(victim)
            if evicted is None:  # unreachable: victim has queued entries
                outcome.shed_reason = "capacity"
                return outcome
            del self._entries[evicted]
            self._drop_count(victim)
            outcome.evicted = evicted

        self._entries[key] = _Entry(request, now)
        self._per_client[request.client_id] = (
            self._per_client.get(request.client_id, 0) + 1
        )
        outcome.admitted = True
        return outcome

    def expire_stale(self, now: float) -> List[Key]:
        """Front sweep usable from timers (same bound as admission-time)."""
        outcome = AdmissionOutcome()
        self._expire_stale(now, outcome)
        return outcome.expired

    def abandoned_requests(self, now: float, age: float, limit: int) -> List:
        """Oldest queued requests not refreshed by a retransmission within
        ``age`` — their clients have gone quiet, so nobody but us will ever
        re-offer them to the primary (the request-relay path's candidates).
        Requests a live client still retransmits are excluded: the primary
        hears those directly, so relaying them buys nothing."""
        stale = []
        for key, entry in self._entries.items():
            if len(stale) >= limit:
                break
            if entry.last_seen + age <= now:
                stale.append(entry.request)
        return stale

    def purge_superseded(self, client_id: str, reqid: int) -> List[Key]:
        """Drop every queued request of ``client_id`` with reqid <= ``reqid``.

        Called when a request for that client *executes*: at-most-once
        semantics mean no earlier reqid can ever execute afterwards, so such
        entries would otherwise sit in the queue until TTL expiry, pinning
        the request timer of a replica that is in fact fully caught up."""
        if self._per_client.get(client_id, 0) == 0:
            return []
        stale = [
            key
            for key in self._entries
            if key[0] == client_id and key[1] <= reqid
        ]
        for key in stale:
            del self._entries[key]
            self._drop_count(client_id)
        return stale

    # -- internals -----------------------------------------------------------

    def _expire_stale(self, now: float, outcome: AdmissionOutcome) -> None:
        for key in list(islice(self._entries, EXPIRY_SWEEP_LIMIT)):
            if self._entries[key].last_seen + self.ttl <= now:
                del self._entries[key]
                self._drop_count(key[0])
                outcome.expired.append(key)

    def _heaviest_client(self) -> Optional[str]:
        if not self._per_client:
            return None
        return max(self._per_client.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def _newest_key_of(self, client_id: str) -> Optional[Key]:
        for key in reversed(self._entries):
            if key[0] == client_id:
                return key
        return None

    def _drop_count(self, client_id: str) -> None:
        count = self._per_client.get(client_id, 0) - 1
        if count <= 0:
            self._per_client.pop(client_id, None)
        else:
            self._per_client[client_id] = count


class OverloadPolicy:
    """What a replica does about its :class:`AdmissionQueue` under load: it
    accounts for what admission shed, answers Busy, and decides whether an
    expired request timer means a faulty primary or merely a saturated one
    (docs/overload.md)."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica
        # Anti-view-change-storm damping state: when this replica last
        # advanced last_executed and last heard the primary (-inf = never),
        # and how long the oldest queued request has been starving across
        # damped firings.
        self._last_commit_time = float("-inf")
        self._last_primary_seen = float("-inf")
        self._damped_streak = 0
        self._damp_oldest: Optional[tuple] = None
        self._relayed_once = False

    def heard_primary(self) -> None:
        """Any traffic from the current primary — pre-prepares, status
        gossip, checkpoints — is evidence it is alive; damping only holds
        back a view change while this is fresh."""
        self._last_primary_seen = self.replica.now()

    def progressed(self) -> None:
        """``last_executed`` advanced (execution or state transfer)."""
        self._last_commit_time = self.replica.now()
        self._relayed_once = False

    def admit(self, request: Request) -> bool:
        """Offer a client request to the queue; True when the replica should
        go on to order it.  A shed arrival is answered Busy by the primary:
        the notice proves it is alive and suggests a retry delay scaled by
        queue fill (congestion-aware backoff hint)."""
        replica = self.replica
        pending = replica.pending
        outcome = pending.admit(request, replica.now())
        if outcome.expired:
            replica.counters.add("pending_expired", len(outcome.expired))
        if outcome.evicted is not None:
            replica.counters.add("pending_evicted")
        if outcome.shed:
            # Shed arrivals also count as evictions from the bounded queue:
            # `pending_evicted` is the memory bound at work on any replica,
            # `requests_shed` breaks out why the arrival was refused.
            replica.counters.add("pending_evicted")
            replica.counters.add("requests_shed")
            replica.counters.add("requests_shed_" + outcome.shed_reason)
        if replica.view_changes.in_view_change or replica.recovering:
            return False
        if not outcome.shed:
            return True
        if replica.is_primary():
            hint = replica.config.client_retry_max * (1.0 + len(pending) / pending.capacity)
            busy = Busy(
                view=replica.view,
                reqid=request.reqid,
                client_id=request.client_id,
                replica_id=replica.node_id,
                retry_after_micros=int(hint * 1_000_000),
            )
            replica.counters.add("busy_replies")
            replica.auth_send(request.client_id, busy)
        return False

    def keep_waiting(self, stalled: bool) -> bool:
        """The request timer expired; ``stalled`` says requests are still
        waiting in a view we could leave.  True re-arms the timer, False
        blames the primary (the caller starts a view change)."""
        if stalled:
            if self._should_damp():
                self.replica.counters.add("view_changes_damped")
                return True
            if self._relay_pending():
                return True
        self._damped_streak = 0
        self._damp_oldest = None
        return not stalled

    def _relay_pending(self) -> bool:
        """PBFT request relay (OSDI'99 section 4.4): before blaming the
        primary, a backup whose timer expired forwards its oldest *abandoned*
        queued requests — ones whose client has stopped retransmitting, so
        the primary (which shed them under load, or never saw the multicast)
        will not hear them from anyone else.  Requests a live client still
        retransmits are not worth delaying a view change for.  One shot per
        stall: if relaying does not restore progress by the next firing, the
        view change proceeds."""
        replica = self.replica
        if replica.is_primary() or self._relayed_once or not replica.pending:
            return False
        # "Abandoned" = not refreshed within 1.5x the client's *initial* retry
        # interval: a client that still wants the reply and believes the
        # primary faulty is in its early, fast retransmission stages, so its
        # entry stays fresher than this.  (Deep-backoff clients can be
        # misclassified; a redundant relay is harmless — the primary dedups.)
        abandoned = replica.pending.abandoned_requests(
            replica.now(), 1.5 * replica.config.client_retry, replica.config.batch_max
        )
        if not abandoned:
            return False
        self._relayed_once = True
        primary = replica.config.primary(replica.view)
        for request in abandoned:
            replica.send(primary, request)
        replica.counters.add("requests_relayed", len(abandoned))
        return True

    def _should_damp(self) -> bool:
        """A busy-but-alive cluster is not a faulty one: while commits keep
        landing (even slower than one timer period apart), stretch our
        patience instead of starting a view change (anti-storm damping).
        "Recent" means within ``DAMPING_WINDOW_FACTOR`` timer periods — a
        valid timer firing already proves no commit landed in the *current*
        period, so the window must look further back to distinguish a slow
        primary from a dead one.  The escape hatch: if the *same* oldest
        queued request starves across ``DAMPING_STREAK_MAX`` consecutive
        damped firings, the primary is making progress while discriminating
        against someone — view-change anyway."""
        replica = self.replica
        pending = replica.pending
        if 2 * len(pending) < pending.capacity:
            # No local overload evidence: a near-empty admission queue means
            # the stall is about one slow request, not saturation — treat the
            # timeout at face value (a crash-looping primary must not hide
            # behind damping meant for saturated-but-healthy clusters).
            return False
        window = DAMPING_WINDOW_FACTOR * replica.view_changes.current_timeout()
        if replica.now() - self._last_commit_time > window:
            return False
        if not replica.is_primary() and replica.now() - self._last_primary_seen > window:
            # Commits were recent but the primary has gone silent: that is a
            # dead primary with residual pipeline drain, not a busy one.
            return False
        if pending:
            marker = ("pending", pending.oldest_key())
        else:
            marker = ("in-flight", min(replica.in_flight))
        if marker == self._damp_oldest:
            self._damped_streak += 1
        else:
            self._damped_streak = 1
            self._damp_oldest = marker
        return self._damped_streak <= DAMPING_STREAK_MAX


class OpenLoopLoadGenerator:
    """A swarm of clients offering a fixed aggregate request rate.

    Open loop: each client issues its next request on a fixed cadence whether
    or not the previous one completed (the previous invocation is cancelled —
    the real-world analogue is a user hitting reload).  This is what makes a
    target *offered* load producible at all: a closed-loop workload self-limits
    exactly when the system saturates.

    ``op_factory(client_id, seq)`` must return a per-client-unique operation
    (the safety oracles require distinct ops per client per incarnation).
    Deterministic: client ``i`` of ``k`` ticks every ``k/rate`` seconds
    starting at ``i/rate`` — no RNG anywhere.
    """

    def __init__(
        self,
        sim: Simulator,
        clients: List,
        rate: float,
        op_factory: Callable[[str, int], bytes],
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if not clients:
            raise ValueError("need at least one client")
        self.sim = sim
        self.clients = clients
        self.rate = rate
        self.op_factory = op_factory
        self.offered = 0
        self.completed = 0
        self.cancelled = 0
        self._running = False
        self._timers: List[EventHandle] = []
        self._seq: Dict[str, int] = {}

    def start(self) -> None:
        self._running = True
        # Phase offsets are assigned by sorted client id, not list position:
        # a swarm built in a different order (or with clients placed across
        # shards differently) must offer the identical per-client request
        # streams, or cross-placement experiments stop being comparable.
        for index, client in enumerate(
            sorted(self.clients, key=lambda c: c.node_id)
        ):
            self._arm(client, index / self.rate)

    def stop(self) -> None:
        """Stop offering load and abandon whatever is still in flight."""
        self._running = False
        for handle in self._timers:
            handle.cancel()
        self._timers = []
        for client in self.clients:
            if client._current is not None:
                client.cancel()

    def set_rate(self, rate: float) -> None:
        """Change the offered rate; each client's next tick picks up the new
        cadence (flash-crowd schedules ramp the rate while the swarm runs)."""
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = rate

    def _arm(self, client, delay: float) -> None:
        def tick() -> None:
            if not self._running:
                return
            self._issue(client)
            # Cadence is re-read per tick so set_rate() takes effect at each
            # client's next issue; at a constant rate this is the historical
            # fixed interval exactly.
            self._arm(client, len(self.clients) / self.rate)

        self._timers.append(self.sim.schedule(delay, tick))

    def _issue(self, client) -> None:
        if client._current is not None:
            # Open loop: the cadence wins; the stale invocation is abandoned.
            client.cancel()
            self.cancelled += 1
        seq = self._seq.get(client.node_id, 0)
        self._seq[client.node_id] = seq + 1
        op = self.op_factory(client.node_id, seq)
        self.offered += 1

        def done(_result: bytes) -> None:
            self.completed += 1

        client.invoke_async(op, done)


class ShardedOpenLoopLoadGenerator(OpenLoopLoadGenerator):
    """Open-loop swarm over sharded clients with a cross-shard transaction mix.

    Each client's tick stream interleaves single-shard operations with
    cross-shard transactions at ``txn_fraction``, spread evenly through the
    per-client sequence (Bresenham on the sequence number — deterministic,
    no RNG).  ``txn_factory(client_id, seq)`` returns the transaction's
    (global index, value) write list.

    Transactions are never cancelled by the cadence: dropping a 2PC
    coordinator mid-flight strands prepared locks until a retransmitted
    decide cleans them up, which would turn an offered-load knob into a
    lock-availability experiment.  A tick that finds the client's previous
    transaction still in flight is skipped and counted (``txns_skipped``).
    """

    def __init__(
        self,
        sim: Simulator,
        clients: List,
        rate: float,
        op_factory: Callable[[str, int], bytes],
        txn_fraction: float = 0.0,
        txn_factory: Optional[Callable[[str, int], List[Tuple[int, bytes]]]] = None,
    ) -> None:
        super().__init__(sim, clients, rate, op_factory)
        if not 0.0 <= txn_fraction <= 1.0:
            raise ValueError("txn_fraction must be in [0, 1]")
        if txn_fraction > 0.0 and txn_factory is None:
            raise ValueError("txn_fraction > 0 needs a txn_factory")
        self.txn_fraction = txn_fraction
        self.txn_factory = txn_factory
        self.txns_started = 0
        self.txns_committed = 0
        self.txns_aborted = 0
        self.txns_skipped = 0

    def _issue(self, client) -> None:
        seq = self._seq.get(client.node_id, 0)
        self._seq[client.node_id] = seq + 1
        fraction = self.txn_fraction
        if fraction > 0.0 and int((seq + 1) * fraction) > int(seq * fraction):
            if client.txn_in_flight():
                self.txns_skipped += 1
                return
            writes = self.txn_factory(client.node_id, seq)
            self.offered += 1
            self.txns_started += 1

            def done_txn(committed: bool) -> None:
                if committed:
                    self.txns_committed += 1
                else:
                    self.txns_aborted += 1
                self.completed += 1

            client.invoke_txn_async(writes, done_txn)
            return
        if client._current is not None:
            client.cancel()
            self.cancelled += 1
        op = self.op_factory(client.node_id, seq)
        self.offered += 1

        def done(_result: bytes) -> None:
            self.completed += 1

        client.invoke_async(op, done)
