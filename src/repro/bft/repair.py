"""Implementation-fault containment: reactive repair, crash-loop escalation,
N-version failover, and a background abstract-state scrubber.

The paper's claim is that BASE *masks* faults in off-the-shelf
implementations.  The replication engine already provides the mechanisms —
``crash_self`` when a wrapped implementation dies, proactive recovery that
rebuilds a service from persistent state, hierarchical state transfer that
adopts the abstract state the quorum certified — but until now nothing
connected a crash to a repair: a dead replica simply waited for the
staggered rejuvenation watchdog.

:class:`FaultContainmentSupervisor` closes that loop per
:class:`~repro.bft.recovery.ReplicaHost`, with an escalation ladder:

1. **Reactive repair** — an observed implementation crash schedules a
   recovery immediately, under capped exponential backoff.
2. **Skip-past-poison** — when the rebuilt implementation dies again with
   the same reason (a deterministic, input-triggered bug re-fed by suffix
   re-execution), the next repair requests state transfer with ``min_seqno``
   *past* the poisoning operation: the replica adopts the abstract state the
   other, diverse implementations produced instead of re-executing the
   poison — exactly the paper's masking mechanism.
3. **N-version failover** — when repair rounds keep failing (e.g. the
   poison sits in the data that ``put_objs`` must re-install), the host
   rebuilds on the *next* implementation in its ordered factory list,
   carrying state through the abstraction function's inverse.

Independently, a **scrubber** periodically audits the live abstract state
for silent corruption — values mutated without a ``modify`` upcall keep
stale digests in the partition tree — and repairs affected leaves through a
targeted partial state transfer (no reboot, no rollback); a replica whose
own checkpoint diverged gets a full recovery.  That one and every crash
repair start at ``host.cluster.recover``, the one recovery entry point.

Everything here runs on simulator virtual time and is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.util.stats import Counters
from repro.util.trace import emit

if TYPE_CHECKING:
    from repro.bft.recovery import ReplicaHost
    from repro.bft.replica import Replica

# How often a supervisor that recovered *behind* its crash point re-checks
# whether ordinary execution has caught up past it (closing the episode).
_PROBE_INTERVAL = 0.05


@dataclass(frozen=True)
class RepairPolicy:
    """Knobs of the containment ladder.

    backoff_initial / backoff_max:
        capped exponential backoff between a crash and the repair it triggers
        (round ``k`` waits ``initial * 2**(k-1)``, capped).
    deterministic_after:
        consecutive same-reason crashes before the fault is classified
        deterministic and repairs start skipping past the poisoning seqno.
    failover_after:
        consecutive same-reason crashes before the host fails over to the
        next implementation in its factory list.
    scrub_interval:
        period of the background abstract-state scrubber (0 disables it).
    scrub_batch:
        leaves re-digested per scrub cycle.
    """

    backoff_initial: float = 0.05
    backoff_max: float = 0.8
    deterministic_after: int = 2
    failover_after: int = 4
    scrub_interval: float = 0.0
    scrub_batch: int = 8

    def backoff(self, round_index: int) -> float:
        exponent = max(0, round_index - 1)
        return min(self.backoff_initial * (2.0 ** exponent), self.backoff_max)


@dataclass(frozen=True)
class CrashRecord:
    """One observed implementation crash."""

    at: float
    reason: str
    seqno: int


class FaultContainmentSupervisor:
    """Reactive repair loop and scrubber for one replica slot."""

    def __init__(self, host: "ReplicaHost", policy: Optional[RepairPolicy] = None) -> None:
        self.host = host
        self.policy = policy if policy is not None else RepairPolicy()
        self.counters = Counters()
        self.crashes: List[CrashRecord] = []
        # Closed repair episodes as (first_crash_time, order_consistent_time):
        # an episode opens at the first crash and closes only once the
        # replica is live, done recovering, and has executed past the highest
        # seqno any crash in the episode was triggered at — i.e. it is
        # order-consistent with the cluster again.  end - start is the MTTR.
        self.mttr_log: List[Tuple[float, float]] = []
        self._loop_count = 0
        self._repair_scheduled = False
        self._episode_start: Optional[float] = None
        self._episode_seqno = 0
        self._skip_min_seqno: Optional[int] = None
        self._scrub_cursor = 0
        self._scrubbing = False

    # -- wiring ------------------------------------------------------------------

    def attach(self, replica: "Replica") -> None:
        """Observe a (re)built replica's implementation crashes."""
        replica.on_crashed = self.on_crash

    # -- the escalation ladder ---------------------------------------------------

    def on_crash(self, reason: str, seqno: int) -> None:
        now = self.host.sim.now()
        previous = self.crashes[-1] if self.crashes else None
        self.crashes.append(CrashRecord(at=now, reason=reason, seqno=seqno))
        self.counters.add("supervisor_crashes_observed")
        if self._episode_start is None:
            self._episode_start = now
        self._episode_seqno = max(self._episode_seqno, seqno)
        if previous is not None and previous.reason == reason:
            self._loop_count += 1
        else:
            self._loop_count = 1
            self._skip_min_seqno = None
        if self._loop_count >= self.policy.deterministic_after:
            # Same reason across a rebuild: re-executing the suffix re-feeds
            # the same poisonous input.  Adopt the quorum's abstract state
            # past the poison instead of re-executing it.
            self.counters.add("supervisor_deterministic_crashes")
            self._skip_min_seqno = max(
                record.seqno for record in self.crashes if record.reason == reason
            )
        if self._loop_count > self.policy.failover_after:
            if self.host.fail_over():
                self.counters.add("supervisor_failovers")
                # Fresh implementation: restart the failover clock while
                # keeping the deterministic classification (and its skip).
                self._loop_count = self.policy.deterministic_after
        delay = self.policy.backoff(self._loop_count)
        emit(
            self.host.tracer,
            self.host.replica_id,
            "repair_scheduled",
            reason=reason,
            seqno=seqno,
            round=self._loop_count,
            delay=delay,
            skip_min_seqno=self._skip_min_seqno or 0,
        )
        self.counters.add("supervisor_repairs_scheduled")
        self._schedule_repair(delay)

    def _schedule_repair(self, delay: float) -> None:
        if self._repair_scheduled:
            return
        self._repair_scheduled = True
        self.host.sim.schedule(delay, self._start_repair)

    def _start_repair(self) -> None:
        self._repair_scheduled = False
        host = self.host
        replica = host.replica
        if (
            not host.network.is_down(host.replica_id)
            and not replica.recovering
            and not replica._stopped
        ):
            return  # already healthy (an operator or the watchdog beat us)
        if host.cluster.recover(host.replica_id, min_seqno=self._skip_min_seqno):
            self.counters.add("supervisor_repairs_started")
            if self._skip_min_seqno is not None:
                self.counters.add("supervisor_skip_transfers")
        else:
            # Host is mid-reboot or already recovering; poll until the
            # attempt resolves (a further crash re-enters the ladder).
            self._schedule_repair(self.policy.backoff(1))

    # -- episode accounting (MTTR) -----------------------------------------------

    def on_recovered(self) -> None:
        """Called by the host when a recovery completes."""
        if self._episode_start is None:
            return
        if self.host.replica.last_executed >= self._episode_seqno:
            self._close_episode()
        else:
            # Recovered behind the crash point: the suffix that killed us
            # will re-execute.  Probe for progress past it (or a re-crash).
            self._arm_progress_probe()

    def _close_episode(self) -> None:
        now = self.host.sim.now()
        assert self._episode_start is not None
        self.mttr_log.append((self._episode_start, now))
        self.counters.add("supervisor_episodes_closed")
        emit(
            self.host.tracer,
            self.host.replica_id,
            "repair_episode_closed",
            duration=now - self._episode_start,
            crashes=len(self.crashes),
        )
        self._episode_start = None
        self._episode_seqno = 0
        self._skip_min_seqno = None
        self._loop_count = 0

    def _arm_progress_probe(self) -> None:
        def probe() -> None:
            if self._episode_start is None:
                return
            host = self.host
            replica = host.replica
            if host.network.is_down(host.replica_id) or replica.recovering:
                return  # crashed again (the ladder continues) or mid-repair
            if replica.last_executed >= self._episode_seqno:
                self._close_episode()
            else:
                host.sim.schedule(_PROBE_INTERVAL, probe)

        self.host.sim.schedule(_PROBE_INTERVAL, probe)

    # -- the scrubber ------------------------------------------------------------

    def start_scrubbing(self) -> None:
        """Arm the periodic scrubber (no-op when the interval is zero)."""
        if self._scrubbing or self.policy.scrub_interval <= 0:
            return
        self._scrubbing = True

        def tick() -> None:
            self.scrub_once()
            self.host.sim.schedule(self.policy.scrub_interval, tick)

        self.host.sim.schedule(self.policy.scrub_interval, tick)

    def scrub_once(self) -> bool:
        """One scrub cycle; returns True when a repair was initiated.

        Detection is two-tiered.  Tier one compares our own checkpoint
        digest at the stable seqno against the quorum's certificate: a
        mismatch means the partition tree itself diverged (we executed to
        different state) and only a full recovery helps.  Tier two re-hashes
        a batch of concrete object values against the live tree — catching
        *silent* corruption the certificates cannot see, since checkpoints
        only re-digest objects that announced themselves via ``modify`` —
        and repairs corrupt leaves with a targeted partial transfer.
        """
        host = self.host
        replica = host.replica
        if host._mid_reboot or host.network.is_down(host.replica_id):
            return False
        if replica.recovering or replica.transfer.active or replica.transfer.scrub_active:
            return False
        cert = replica.stable_cert
        if cert is None:
            return False
        self.counters.add("scrub_cycles")
        own = replica.own_checkpoints.get(cert.seqno)
        if own is not None and own.state_digest != cert.state_digest:
            self.counters.add("scrub_full_recoveries")
            emit(
                host.tracer,
                host.replica_id,
                "scrub_divergence_detected",
                seqno=cert.seqno,
            )
            return host.cluster.recover(host.replica_id)
        corrupt, self._scrub_cursor = replica.service.manager.scan_for_corruption(
            self._scrub_cursor, self.policy.scrub_batch
        )
        if not corrupt:
            return False
        self.counters.add("scrub_corruption_detected", len(corrupt))
        emit(
            host.tracer,
            host.replica_id,
            "scrub_corruption_detected",
            seqno=cert.seqno,
            leaves=sorted(corrupt),
        )
        return replica.transfer.begin_scrub(cert, corrupt)

    # -- observability -----------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Snapshot for operators and tests (see ``Cluster.repair_status``)."""
        return {
            "crashes": len(self.crashes),
            "last_crash_reason": self.crashes[-1].reason if self.crashes else "",
            "loop_count": self._loop_count,
            "skip_min_seqno": self._skip_min_seqno,
            "factory_index": self.host.factory_index,
            "episode_open": self._episode_start is not None,
            "repair_scheduled": self._repair_scheduled,
            "mttr": [end - start for start, end in self.mttr_log],
        }
