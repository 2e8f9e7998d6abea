"""The user-level relay and deployment builder (paper Figure 2).

A relay mediates between a standard NFS client and the replicas: it receives
NFS protocol requests, calls the ``invoke`` procedure of the replication
library, and hands the result back.  In this reproduction the "kernel NFS
client" is the :class:`repro.nfs.client.NFSClient` façade and the relay is a
thin transport that encodes calls into BFT operations.

``NFSDeployment`` wires a full replicated file service together: one
simulator, one network, four replicas (each running a possibly *different*
file-system implementation behind its conformance wrapper), and any number
of relays.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

from repro.base.library import BASEService
from repro.bft.client import Client
from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.bft.repair import RepairPolicy
from repro.net.network import NetworkConfig
from repro.net.simulator import Simulator
from repro.nfs.fileserver.api import NFSServer
from repro.nfs.protocol import NfsCall, NfsReply
from repro.nfs.spec import NFSAbstractSpec
from repro.nfs.wrapper import NFSConformanceWrapper

ImplFactory = Callable[[dict], NFSServer]
"""Builds one file-server implementation over a persistent disk dict."""

ImplFactories = Union[ImplFactory, Sequence[ImplFactory]]
"""One implementation, or an ordered N-version failover list for a replica."""


class NFSRelay:
    """Relay process: NFS request in, replicated invoke out.

    ``read_only_optimization`` controls whether read procedures use the BFT
    library's unordered read path (2f+1 matching replies, one round trip) or
    go through full three-phase ordering like writes; the ablation benchmark
    (E15) measures the difference.
    """

    def __init__(
        self,
        bft_client: Client,
        timeout: float = 120.0,
        read_only_optimization: bool = True,
    ) -> None:
        self.bft_client = bft_client
        self.timeout = timeout
        self.read_only_optimization = read_only_optimization

    def call(self, request: NfsCall) -> NfsReply:
        """Invoke one NFS operation on the replicated service."""
        read_only = request.is_read_only and self.read_only_optimization
        result = self.bft_client.invoke(
            request.encode(), read_only=read_only, timeout=self.timeout
        )
        return NfsReply.decode(result)


class NFSDeployment:
    """A complete replicated file service over the simulated network."""

    def __init__(
        self,
        impl_factory_for: Dict[str, ImplFactories],
        config: Optional[BFTConfig] = None,
        seed: int = 0,
        num_objects: int = 256,
        net_config: Optional[NetworkConfig] = None,
        arity: int = 8,
        repair: Optional[RepairPolicy] = None,
    ) -> None:
        self.config = config or BFTConfig()
        if set(impl_factory_for) != set(self.config.replica_ids):
            raise ValueError("need exactly one implementation factory per replica")
        self.num_objects = num_objects
        sim = Simulator(seed=seed)

        def make_service(impl_factory: ImplFactory):
            def make(disk: dict) -> BASEService:
                wrapper = NFSConformanceWrapper(
                    impl_factory(disk), NFSAbstractSpec(num_objects), disk
                )
                return BASEService(wrapper, sim.clock, arity=arity)

            return make

        def service_factory_for(replica_id: str):
            # An N-version survivor inherits the conformance rep the failed
            # implementation persisted on the replica's disk.
            impl_factories = impl_factory_for[replica_id]
            if callable(impl_factories):
                return make_service(impl_factories)
            return [make_service(f) for f in impl_factories]

        self.cluster = Cluster(
            service_factory_for,
            config=self.config,
            net_config=net_config,
            sim=sim,
            repair=repair,
        )

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    def relay(self, client_id: str, read_only_optimization: bool = True) -> NFSRelay:
        """A relay bound to one BFT client identity."""
        return NFSRelay(
            self.cluster.client(client_id),
            read_only_optimization=read_only_optimization,
        )

    def wrapper(self, replica_id: str) -> NFSConformanceWrapper:
        service = self.cluster.service(replica_id)
        assert isinstance(service, BASEService)
        wrapper = service.wrapper
        assert isinstance(wrapper, NFSConformanceWrapper)
        return wrapper

    def impl(self, replica_id: str) -> NFSServer:
        return self.wrapper(replica_id).impl
