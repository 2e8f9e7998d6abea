"""Static configuration of a BFT service instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.util.errors import ConfigurationError

#: The deployments a fault plan runs on (``repro.explore.interpreter``): one
#: group under the explore workload, several groups plus the 2PC layer, one
#: group under the soak probe.
SINGLE, SHARDED, SOAK = "single", "sharded", "soak"


@dataclass
class BFTConfig:
    """Parameters shared by every replica and client of one service.

    A field is a value some caller sets.  Fixed behaviour is a constant of
    the module that owns it: anti-storm damping of an expired request timer,
    for one, is always on (``DAMPING_WINDOW_FACTOR`` and
    ``DAMPING_STREAK_MAX`` in ``bft/overload.py``).

    replica_ids:        ordered replica identities; primary(v) = ids[v mod n].
    f:                  tolerated Byzantine faults; requires n >= 3f + 1.
    checkpoint_interval: take a checkpoint every k requests (paper: k = 128).
    log_window:         high-water mark offset L (log holds seqnos (h, h+L]).
    batch_max:          max requests folded into one pre-prepare.
    max_outstanding:    max ordering instances the primary keeps *forming* —
                        pre-prepared, still short of their prepared
                        certificate; requests arriving meanwhile accumulate
                        and go out as one batch when an instance prepares
                        (this is what makes batching happen at all).  With
                        ``pipeline_depth`` 0 it also bounds the instances
                        not yet *executed*, which is the stricter of the two.
    view_change_timeout: backup patience for an unexecuted request, seconds.
    status_interval:    period of status/retransmission gossip, seconds.
    client_retry:       initial client retransmission delay, seconds; doubles
                        on every retry (capped exponential backoff).
    client_retry_max:   retransmission delay ceiling, seconds — keeps a slow
                        or repairing cluster from being hammered while still
                        bounding how stale a client's retransmission gets.
    read_only_timeout:  how long a client waits for a read-only quorum before
                        falling back to a regular, ordered request.
    recovery_period:    full proactive-recovery rotation period (0 disables);
                        replica i reboots at phase i/n of each rotation.
    admission_capacity: bound on the pending-request admission queue; beyond
                        it requests are shed deterministically (never protocol
                        messages) and the primary answers Busy.
    admission_per_client: max requests one client may hold queued at a
                        replica; excess arrivals from that client are shed
                        first (fair drop-newest).
    pending_ttl:        queued requests not refreshed by a client
                        retransmission within this many seconds are expired —
                        an abandoned (cancelled / satisfied-elsewhere) request
                        must not pin the request timer forever.
    pipeline_depth:     fast path — let the primary run this many instances
                        ahead of *execution* (0: ``max_outstanding``).  It
                        bounds the prepared instances waiting for their
                        commits; how many may be forming at once is still
                        ``max_outstanding``.
    speculative_execution: fast path — execute batches tentatively at
                        prepare-quorum time (one phase early) and answer with
                        SpecReply; rolled back on view change or divergence,
                        confirmed when the commit certificate lands.
    read_leases:        fast path — the primary grants a read lease to all
                        replicas whenever no write is in flight and revokes
                        it before proposing the next write.  A replica
                        answers a read-only request while it holds a lease
                        for the current view and has executed up to the
                        lease's seqno; a request that arrives when it cannot
                        is parked there and answered when the next lease (or
                        the execution it was short of) arrives; across a view
                        change it waits for the new primary's first lease,
                        never the old view's.  Lease-aware clients send
                        a read to just 2f+1 replicas, moving those that let
                        one time out to the back of their preference order;
                        a read still needs 2f+1 matching replies.
    """

    replica_ids: List[str] = field(default_factory=lambda: ["R0", "R1", "R2", "R3"])
    f: int = 1
    checkpoint_interval: int = 16
    log_window: int = 64
    batch_max: int = 8
    max_outstanding: int = 2
    view_change_timeout: float = 0.25
    status_interval: float = 0.05
    client_retry: float = 0.15
    client_retry_max: float = 0.6
    read_only_timeout: float = 0.05
    recovery_period: float = 0.0
    admission_capacity: int = 64
    admission_per_client: int = 8
    pending_ttl: float = 2.0
    pipeline_depth: int = 0
    speculative_execution: bool = False
    read_leases: bool = False

    def __post_init__(self) -> None:
        if len(set(self.replica_ids)) != len(self.replica_ids):
            raise ConfigurationError("duplicate replica ids")
        if self.n < 3 * self.f + 1:
            raise ConfigurationError(
                f"n={self.n} replicas cannot tolerate f={self.f} faults "
                f"(need n >= 3f+1 = {3 * self.f + 1})"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")
        if self.log_window < 2 * self.checkpoint_interval:
            raise ConfigurationError(
                "log_window must be at least twice the checkpoint interval"
            )
        if self.batch_max < 1:
            raise ConfigurationError("batch_max must be >= 1")
        if self.max_outstanding < 1:
            raise ConfigurationError("max_outstanding must be >= 1")
        if self.client_retry_max < self.client_retry:
            raise ConfigurationError("client_retry_max must be >= client_retry")
        if self.admission_capacity < self.batch_max:
            raise ConfigurationError(
                "admission_capacity must be >= batch_max (a full batch must fit)"
            )
        if self.admission_per_client < 1:
            raise ConfigurationError("admission_per_client must be >= 1")
        if self.pending_ttl <= self.client_retry_max:
            raise ConfigurationError(
                "pending_ttl must exceed client_retry_max (a live client's "
                "retransmissions must be able to refresh its queue entry)"
            )
        if self.pipeline_depth < 0:
            raise ConfigurationError("pipeline_depth must be >= 0 (0 disables)")
        if self.pipeline_depth >= self.log_window:
            raise ConfigurationError(
                "pipeline_depth must be smaller than log_window (in-flight "
                "slots all have to fit inside the water-mark window)"
            )

    @property
    def outstanding_window(self) -> int:
        """Unexecuted ordering instances the primary may have: the fast-path
        ``pipeline_depth`` when set, else the baseline ``max_outstanding``."""
        return self.pipeline_depth if self.pipeline_depth > 0 else self.max_outstanding

    @property
    def n(self) -> int:
        return len(self.replica_ids)

    @property
    def quorum(self) -> int:
        """Size of a strong (Byzantine) quorum: 2f + 1."""
        return 2 * self.f + 1

    @property
    def weak_quorum(self) -> int:
        """f + 1: guarantees at least one correct member."""
        return self.f + 1

    def primary(self, view: int) -> str:
        ids = self.replica_ids
        return ids[view % len(ids)]

    def replica_index(self, replica_id: str) -> int:
        return self.replica_ids.index(replica_id)


@dataclass(frozen=True)
class Variant:
    """One member of the protocol family: the :class:`BFTConfig` fields it
    sets and the deployments a fault plan may run it on."""

    overrides: Dict[str, object]
    deployments: FrozenSet[str] = frozenset({SINGLE})


#: The protocol variants, in order.  Each row turns on one more fast-path
#: mechanism than the row before it, so a failure along the ladder names the
#: mechanism that broke.  Everything that names a variant reads it here.
VARIANTS: Dict[str, Variant] = {
    "baseline": Variant({}, frozenset({SINGLE, SHARDED, SOAK})),
    "pipelined": Variant({"pipeline_depth": 8}),
    "speculation": Variant({"pipeline_depth": 8, "speculative_execution": True}),
    "fast-path": Variant(
        {"pipeline_depth": 8, "speculative_execution": True, "read_leases": True}
    ),
}


def variant_of(overrides: Optional[Dict]) -> Optional[str]:
    """The variant whose overrides are exactly ``overrides`` (None is the
    baseline), or None when no row is."""
    given = overrides or {}
    return next((name for name, row in VARIANTS.items() if row.overrides == given), None)
