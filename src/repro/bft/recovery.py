"""Proactive recovery / software rejuvenation (OSDI'00 + paper section 2.2).

A :class:`ReplicaHost` owns one replica slot: the live :class:`Replica`
instance and the factory that (re)builds its service from persistent
storage.  Every recovery starts at :meth:`Cluster.recover
<repro.bft.cluster.Cluster.recover>`, the only caller of ``recover_now``:
the cluster's staggered watchdog (replica ``i`` fires at phase ``(i+1)/n``
of each rotation), the supervisor and scrubber through ``host.cluster``, the
fused tier and the explore ``recover`` step.  Nothing there yet bounds how
many replicas are recovering at once: ``recover_now`` checks only its own
replica, and a recovery lasts until its state transfer finishes.
Recoveries can overlap, and a group whose every replica is recovering stops
(ROADMAP item 1).

A recovery:

1. announces RECOVERING — and, if this replica is the primary, hands the
   view over: it multicasts its own VIEW-CHANGE for v+1, which the backups
   follow at once, so a planned reboot costs them no request timeout
   (OSDI'00 section 4.3) — and asks the service to save its recovery metadata
   (the BASE conformance rep, the ⟨fsid, fileid⟩→oid map, partition lm's);
2. stops the replica and takes it off the network for ``REBOOT_TIME``;
3. refreshes the replica's inbound session keys (stale MACs stop verifying);
4. rebuilds the service *from a clean implementation instance plus the saved
   metadata* — in-memory corruption and aging are discarded here;
5. starts a fresh replica that runs hierarchical state transfer against a
   stable checkpoint certificate, fetching only out-of-date or corrupt
   abstract objects, then announces RECOVERED.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from repro.bft.messages import Recovering
from repro.bft.repair import FaultContainmentSupervisor, RepairPolicy
from repro.bft.replica import Replica
from repro.bft.service import StateMachine
from repro.util.trace import emit

if TYPE_CHECKING:
    from repro.bft.cluster import Cluster

#: Builds a replica's service over its persistent disk dict.
ServiceFactory = Callable[[dict], StateMachine]

#: Virtual seconds a recovering replica stays stopped and off the network.
REBOOT_TIME = 0.02


class ReplicaHost:
    """One replica slot with reboot capability.

    ``service_factory`` is either one factory or an ordered sequence of
    factories — the N-version list: the host runs the first implementation
    and the fault-containment supervisor fails over to later ones when
    repairs keep failing.  Every build of any of them is handed the same
    ``disk``, the replica's persistent state.  Passing ``repair`` (a
    :class:`RepairPolicy`) attaches the supervisor; without it crashes wait
    for the cluster's proactive watchdog.  ``cluster`` built the host and
    lends it its sim, network, keys and disks; recoveries start there.
    """

    def __init__(
        self,
        replica_id: str,
        cluster: Cluster,
        service_factory: Union[ServiceFactory, Sequence[ServiceFactory]],
        repair: Optional[RepairPolicy] = None,
    ) -> None:
        self.replica_id = replica_id
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.config = cluster.config
        if callable(service_factory):
            self.factories: List[ServiceFactory] = [service_factory]
        else:
            self.factories = list(service_factory)
            if not self.factories:
                raise ValueError("service_factory sequence must not be empty")
        self.factory_index = 0
        self.disk = cluster.disks[replica_id]
        self.keys = cluster.keys
        self.sigs = cluster.sigs
        self.tracer = cluster.tracer

        self.service = self.service_factory(self.disk)
        self.replica = Replica(
            replica_id, self.sim, self.network, self.config, self.service, self.keys, self.sigs
        )
        self.replica.tracer = self.tracer
        self.recovery_log: List[Tuple[float, float]] = []
        self._recovery_epoch = 0
        self._recovery_started_at: Optional[float] = None
        self._mid_reboot = False
        # Fused-backup feeder (repro.bft.fusion): host-resident so ack state
        # and the checkpoint GC pin survive reboots; relinked in _reboot.
        self.fusion_feeder = None
        self.supervisor: Optional[FaultContainmentSupervisor] = None
        if repair is not None:
            self.supervisor = FaultContainmentSupervisor(self, repair)
            self.supervisor.attach(self.replica)
            self.supervisor.start_scrubbing()

    @property
    def service_factory(self) -> ServiceFactory:
        """The currently selected implementation's factory."""
        return self.factories[self.factory_index]

    def fail_over(self) -> bool:
        """Advance to the next implementation in the N-version list; the
        next rebuild runs it.  Returns False when none is left."""
        if self.factory_index + 1 >= len(self.factories):
            self.replica.counters.add("failover_exhausted")
            return False
        self.factory_index += 1
        self.replica.counters.add("implementation_failovers")
        emit(
            self.tracer,
            self.replica_id,
            "implementation_failover",
            factory_index=self.factory_index,
        )
        return True

    # -- one recovery --------------------------------------------------------------

    def recover_now(
        self,
        min_seqno: Optional[int] = None,
        restore: Optional[Callable[[Replica], None]] = None,
    ) -> bool:
        """Run one proactive recovery; returns False if skipped.

        Works for live replicas (ordinary rejuvenation) and for replicas
        whose implementation crashed (aging, deterministic bugs): the crashed
        case skips the announcement and the synchronous save — whatever the
        implementation last persisted is what recovery starts from.

        ``min_seqno`` floors the state-transfer anchor: the rebuilt replica
        only accepts checkpoint certificates at or past it, so execution
        resumes *after* that seqno.  The supervisor uses this to skip past a
        poisonous operation that deterministically kills the implementation,
        adopting the abstract state the other implementations produced.

        ``restore(replica)`` brings the rebuilt replica's state back, called
        once as its reboot ends: by default, fetch a certificate at or past
        the floor and transfer toward it.  The fused tier, which holds the
        certified state of a destroyed group and has no peer left to ask,
        installs that instead (``min_seqno`` is then unused)."""
        replica = self.replica
        if self._mid_reboot:
            return False
        # A replica whose implementation crashed is stopped; it may also have
        # had its network link restored by an operator (a "zombie"), so the
        # stopped flag counts as crashed too.
        crashed = self.network.is_down(self.replica_id) or replica._stopped
        if replica.recovering and not crashed:
            # Mid-recovery and healthy: let it finish.  (A replica that
            # crashed *during* recovery is down and may be recovered again.)
            return False
        if not crashed and replica.stable_seqno == 0 and replica.last_executed == 0:
            # Nothing has ever been certified; there is no state to verify
            # against and nothing to rejuvenate.
            return False
        self._recovery_epoch += 1
        epoch = self._recovery_epoch
        self._recovery_started_at = self.sim.now()
        replica.counters.add("recoveries_started")
        if not crashed:
            replica.multicast(
                replica.other_replicas(), Recovering(replica_id=self.replica_id, epoch=epoch)
            )
            if replica.is_primary() and not replica.view_changes.in_view_change:
                # OSDI'00 section 4.3: a primary about to reboot votes itself
                # out first, so the backups need not time it out.
                replica.counters.add("view_handoffs_sent")
                replica.view_changes.start(replica.view + 1)
        try:
            self.service.save_for_recovery()
        except Exception:
            replica.counters.add("recovery_save_failed")
        saved_view = replica.view
        saved_counters = replica.counters
        if restore is None:
            floor = max(1, replica.stable_seqno, min_seqno or 0)

            def restore(rebuilt: Replica) -> None:
                rebuilt.transfer.begin_from_root(min_seqno=floor)

        replica.stop()
        self.network.set_down(self.replica_id, True)
        self._mid_reboot = True
        self.sim.schedule(
            REBOOT_TIME, lambda: self._reboot(saved_view, saved_counters, restore)
        )
        return True

    def _reboot(
        self, saved_view: int, saved_counters, restore: Callable[[Replica], None]
    ) -> None:
        self._mid_reboot = False
        self.network.set_down(self.replica_id, False)
        # New inbound session keys: messages MAC'd under the old keys --
        # possibly known to an attacker who compromised us -- stop verifying.
        self.keys.refresh(self.replica_id)
        # Fresh implementation instance built from persistent storage only;
        # in-memory corruption and aging do not survive this line.
        self.service = self.service_factory(self.disk)
        replica = Replica(
            self.replica_id,
            self.sim,
            self.network,
            self.config,
            self.service,
            self.keys,
            self.sigs,
            takeover=True,
        )
        replica.counters.merge(saved_counters)
        replica.view = saved_view
        replica.recovering = True
        replica.on_recovered = self._record_recovered
        replica.tracer = self.tracer
        replica.fusion_feeder = self.fusion_feeder
        self.replica = replica
        if self.supervisor is not None:
            self.supervisor.attach(replica)
        restore(replica)

    def _record_recovered(self) -> None:
        if self._recovery_started_at is not None:
            self.recovery_log.append((self._recovery_started_at, self.sim.now()))
            self._recovery_started_at = None
        if self.supervisor is not None:
            self.supervisor.on_recovered()

    # -- metrics ----------------------------------------------------------------------

    def recovery_durations(self) -> List[float]:
        return [end - start for start, end in self.recovery_log]
