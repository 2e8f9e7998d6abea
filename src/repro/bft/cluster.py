"""Deployment harness: wire a simulator, network, keys, replicas, and
clients into a runnable BFT service.

Used by integration tests, the examples, and every benchmark.  The
``service_factory_for(replica_id)`` indirection is what lets each replica run
a *different* implementation (opportunistic N-version programming); the
cluster keeps each replica's disk, so proactive recovery rebuilds a
replica's service over the persistent state its last instance left.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.bft.client import Client
from repro.bft.config import BFTConfig
from repro.bft.recovery import ReplicaHost, ServiceFactory
from repro.bft.repair import RepairPolicy
from repro.bft.replica import Replica
from repro.bft.service import StateMachine
from repro.crypto.auth import KeyTable
from repro.crypto.sign import SignatureScheme
from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator
from repro.util.stats import Counters
from repro.util.trace import Tracer

# One factory, or an ordered N-version failover list per replica.
ServiceFactories = Union[ServiceFactory, Sequence[ServiceFactory]]


class Cluster:
    """A complete simulated deployment of one replicated service.  ``disks``
    maps each replica id to the persistent state every build of its service,
    by any factory of its N-version list, is handed (or ignores)."""

    def __init__(
        self,
        service_factory_for: Callable[[str], ServiceFactories],
        config: Optional[BFTConfig] = None,
        seed: int = 0,
        net_config: Optional[NetworkConfig] = None,
        sim: Optional[Simulator] = None,
        trace: bool = False,
        repair: Optional[RepairPolicy] = None,
    ) -> None:
        self.config = config or BFTConfig()
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.network = Network(self.sim, net_config)
        self.keys = KeyTable()
        self.sigs = SignatureScheme()
        self.tracer = Tracer(clock=self.sim.now) if trace else None
        self.disks: Dict[str, dict] = {}
        self.hosts: Dict[str, ReplicaHost] = {}
        for replica_id in self.config.replica_ids:
            self.disks[replica_id] = {}
            self.hosts[replica_id] = ReplicaHost(
                replica_id, self, service_factory_for(replica_id), repair=repair
            )
        self._clients: Dict[str, Client] = {}

    # -- access -------------------------------------------------------------------

    @property
    def clusters(self) -> List["Cluster"]:
        """The deployment's groups, as ``ShardedCluster.clusters``: this one."""
        return [self]

    @property
    def replicas(self) -> List[Replica]:
        return [host.replica for host in self.hosts.values()]

    def host(self, replica_id: str) -> ReplicaHost:
        return self.hosts[replica_id]

    def replica(self, replica_id: str) -> Replica:
        return self.hosts[replica_id].replica

    def service(self, replica_id: str) -> StateMachine:
        return self.hosts[replica_id].service

    def client(self, client_id: str, cls: Optional[type] = None) -> Client:
        """Get-or-create a client.  ``cls`` picks the client class on first
        creation (e.g. the transactional vote client); a cached client is
        returned as-is, whatever class it was created with."""
        if client_id not in self._clients:
            self._clients[client_id] = (cls or Client)(
                client_id, self.sim, self.network, self.config, self.keys
            )
        return self._clients[client_id]

    # -- control --------------------------------------------------------------------

    def start_proactive_recovery(self) -> None:
        """Arm the staggered watchdog: replica ``i`` recovers at phase
        ``(i+1)/n`` of every ``recovery_period`` (no-op when it is zero)."""
        period = self.config.recovery_period
        if period <= 0:
            return

        def fire(replica_id: str) -> None:
            self.recover(replica_id)
            self.sim.schedule(period, lambda: fire(replica_id))

        for replica_id in self.hosts:
            index = self.config.replica_index(replica_id)
            self.sim.schedule(period * (index + 1) / self.config.n, lambda r=replica_id: fire(r))

    def crash(self, replica_id: str) -> None:
        """Silence a replica (crash fault)."""
        self.network.set_down(replica_id, True)

    def restart(self, replica_id: str) -> None:
        self.network.set_down(replica_id, False)

    def recover(
        self,
        replica_id: str,
        min_seqno: Optional[int] = None,
        restore: Optional[Callable[[Replica], None]] = None,
    ) -> bool:
        """Start one recovery of a replica now; False if it is refused.  The
        only caller of ``ReplicaHost.recover_now``: every recovery starts here."""
        return self.hosts[replica_id].recover_now(min_seqno=min_seqno, restore=restore)

    def heal(self) -> None:
        """Remove any network partition."""
        self.network.heal_partition()

    def restart_all_down(self) -> None:
        """Bring every crashed replica back (mid-reboot hosts finish on
        their own schedule and are left alone).

        Hosts under a fault-containment supervisor whose *implementation*
        crashed are also left alone: restoring only their network link would
        make a zombie (the replica object is stopped); their pending repair
        rebuilds them properly."""
        for replica_id, host in self.hosts.items():
            if not self.network.is_down(replica_id) or host._mid_reboot:
                continue
            if host.supervisor is not None and host.replica._stopped:
                continue
            self.restart(replica_id)

    def settle(self, duration: float = 0.5) -> None:
        """Let in-flight protocol traffic quiesce."""
        self.sim.run_for(duration)

    # -- metrics ----------------------------------------------------------------------

    def repair_status(self) -> Dict[str, Dict[str, object]]:
        """Per-replica fault-containment snapshot (hosts with a supervisor):
        crash counts, escalation state, failover index, and MTTR samples."""
        return {
            rid: host.supervisor.status()
            for rid, host in self.hosts.items()
            if host.supervisor is not None
        }

    def total_counters(self) -> Counters:
        total = Counters()
        for host in self.hosts.values():
            total.merge(host.replica.counters)
            if host.supervisor is not None:
                total.merge(host.supervisor.counters)
        for client in self._clients.values():
            total.merge(client.counters)
        total.merge(self.network.counters)
        total.merge(self.keys.counters)
        return total
