"""Sharded deployments: S independently-ordering BASE groups behind one map.

A :class:`ShardedCluster` is S ordinary :class:`~repro.bft.cluster.Cluster`
instances sharing one simulator, each with its *own* network and key table —
shards are fully independent failure and ordering domains, exactly as if they
were S separate services.  A deterministic :class:`~repro.base.shardmap.ShardMap`
partitions the global abstract object space across them, so every party
computes identical routing with no coordination.

:class:`ShardedClient` is the routing front end: single-shard operations are
rewritten to shard-local indices and sent straight through a per-shard
sub-client (no extra hops, no cross-shard coordination — the common case the
near-linear scaling claim rests on); multi-shard writes run through the
client-coordinated 2PC layer in :mod:`repro.bft.txn`.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.base.shardmap import ShardMap
from repro.bft.client import Client
from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.bft.testing import KV_OPS, HistoryRecorder, KVStateMachine, RecordingKV, kv_group
from repro.bft.txn import (
    TxnCoordinator,
    VoteClient,
    encode_txn_decide,
)
from repro.net.network import NetworkConfig
from repro.net.simulator import Simulator
from repro.util.stats import Counters
from repro.util.xdr import XdrEncoder, decode_op


class ShardedCluster:
    """S BASE groups on one simulator, addressed through a shard map."""

    def __init__(self, clusters: List[Cluster], shardmap: ShardMap) -> None:
        if len(clusters) != shardmap.num_shards:
            raise ValueError("one cluster per shard")
        self.clusters = clusters
        self.shardmap = shardmap
        self.sim = clusters[0].sim
        self._clients: Dict[str, "ShardedClient"] = {}
        # Fused-backup tier (repro.bft.fusion), set by FusedBackupTier.attach().
        self.fusion = None

    def shard(self, shard: int) -> Cluster:
        return self.clusters[shard]

    def client(self, client_id: str) -> "ShardedClient":
        if client_id not in self._clients:
            self._clients[client_id] = ShardedClient(client_id, self)
        return self._clients[client_id]

    # -- control ----------------------------------------------------------------------

    def settle(self, duration: float = 0.5) -> None:
        self.sim.run_for(duration)

    def destroy_group(self, shard: int) -> None:
        """Catastrophic loss of an entire shard group: every replica stops
        AND its persistent disk is wiped — more than f correlated faults,
        beyond what the group's own replication can mask or its recovery
        path can repair.  If a fused-backup tier is attached, it rebuilds
        the group's abstract state from the surviving groups plus parity
        (see repro.bft.fusion); otherwise the shard is simply gone, which is
        the baseline this tier exists to fix."""
        cluster = self.clusters[shard]
        for rid in sorted(cluster.hosts):
            cluster.hosts[rid].replica.stop()
            cluster.network.set_down(rid, True)
            # In place: the host rebuilds its service over this same dict.
            cluster.disks[rid].clear()
        if self.fusion is not None:
            self.fusion.on_group_destroyed(shard)

    # -- metrics ----------------------------------------------------------------------

    def repair_status(self) -> Dict[str, object]:
        """Fleet-wide repair picture: per-group fault-containment snapshots
        and recovery MTTR samples, plus fused-tier reconstruction episodes."""
        status: Dict[str, object] = {}
        for shard, cluster in enumerate(self.clusters):
            recoveries = {
                rid: host.recovery_durations()
                for rid, host in sorted(cluster.hosts.items())
                if host.recovery_log
            }
            samples = [sample for per in recoveries.values() for sample in per]
            status[f"shard{shard}"] = {
                "replicas": cluster.repair_status(),
                "recoveries": recoveries,
                "mttr": (sum(samples) / len(samples)) if samples else None,
            }
        if self.fusion is not None:
            episodes = [r.to_dict() for r in self.fusion.reconstructions]
            mttrs = [
                r.mttr
                for r in self.fusion.reconstructions
                if r.ok and r.mttr is not None
            ]
            status["reconstructions"] = {
                "episodes": episodes,
                "mttr": (sum(mttrs) / len(mttrs)) if mttrs else None,
            }
        return status

    def total_counters(self) -> Counters:
        total = Counters()
        for cluster in self.clusters:
            total.merge(cluster.total_counters())
            for host in cluster.hosts.values():
                participant = getattr(host.service, "participant", None)
                if participant is not None:
                    total.merge(participant.counters)
        for client in self._clients.values():
            total.merge(client.counters)
        if self.fusion is not None:
            total.merge(self.fusion.total_counters())
        return total


class ShardedClient:
    """Routes global-index operations to their shard; drives 2PC across shards.

    Holds one plain sub-client per shard (single-shard traffic) and one
    :class:`~repro.bft.txn.VoteClient` per shard (transaction traffic), all
    sharing this client's id prefix — distinct ids per network role keep the
    one-outstanding-invocation discipline of the underlying BFT client while
    a transaction and a routed read never block each other.
    """

    def __init__(self, client_id: str, cluster: ShardedCluster) -> None:
        self.node_id = client_id
        self.cluster = cluster
        self.sim = cluster.sim
        self.shardmap = cluster.shardmap
        self.counters = Counters()
        self._active: Optional[Client] = None
        self._coordinator: Optional[TxnCoordinator] = None
        self._txn_seq = 0
        self._abandon_seq = 0

    # -- sub-clients ------------------------------------------------------------------

    def _single_sub(self, shard: int) -> Client:
        return self.cluster.shard(shard).client(self.node_id)

    def _txn_sub(self, shard: int) -> VoteClient:
        client = self.cluster.shard(shard).client(f"{self.node_id}.t", cls=VoteClient)
        assert isinstance(client, VoteClient)
        return client

    # -- single-shard operations --------------------------------------------------------

    def _route(self, op: bytes) -> Tuple[int, bytes]:
        """Rewrite a global-index SET/GET/APPEND to its shard-local form;
        anything but exactly one such op is refused (``ValueError``)."""
        _command, args = decode_op(KV_OPS, op)
        local = dataclasses.replace(args, index=self.shardmap.local_index(args.index))
        return self.shardmap.shard_of(args.index), XdrEncoder.encode(local)

    def invoke_async(
        self,
        op: bytes,
        callback: Callable[[bytes], None],
        read_only: bool = False,
    ) -> int:
        shard, local_op = self._route(op)
        sub = self._single_sub(shard)
        self._active = sub
        self.counters.add("sharded_invokes")

        def finish(result: bytes) -> None:
            if self._active is sub:
                self._active = None
            callback(result)

        return sub.invoke_async(local_op, finish, read_only=read_only)

    def invoke(self, op: bytes, read_only: bool = False, timeout: float = 60.0) -> bytes:
        box: list = []
        self.invoke_async(op, box.append, read_only=read_only)
        ok = self.sim.run_until_condition(box.__len__, timeout=timeout)
        if not ok:
            from repro.bft.client import InvocationTimeout

            raise InvocationTimeout(
                f"sharded request from {self.node_id} got no quorum "
                f"within {timeout}s of virtual time"
            )
        return box[0]

    @property
    def _current(self):
        """Duck-type the plain client's in-flight marker (the open-loop
        generator checks it before cancelling); transactions are tracked
        separately and never show up here."""
        return self._active._current if self._active is not None else None

    def cancel(self) -> None:
        """Abandon the in-flight single-shard invocation (transactions are
        abandoned via :meth:`abandon_txn`, which must retransmit)."""
        if self._active is not None:
            self._active.cancel()
            self._active = None

    # -- cross-shard transactions --------------------------------------------------------

    def txn_in_flight(self) -> bool:
        return self._coordinator is not None

    def invoke_txn_async(
        self,
        writes: List[Tuple[int, bytes]],
        callback: Callable[[bool], None],
    ) -> str:
        """Atomically apply ``writes`` (global index, value) across shards.

        ``callback(committed)`` fires once every participant shard has
        acknowledged the decision."""
        if self._coordinator is not None:
            raise RuntimeError(
                f"client {self.node_id} already has a transaction in flight"
            )
        self._txn_seq += 1
        txid = f"{self.node_id}:{self._txn_seq}"
        writes_by_shard: Dict[int, List[Tuple[int, bytes]]] = {}
        for index, value in writes:
            shard = self.shardmap.shard_of(index)
            writes_by_shard.setdefault(shard, []).append(
                (self.shardmap.local_index(index), value)
            )
        clients = {shard: self._txn_sub(shard) for shard in writes_by_shard}
        for sub in clients.values():
            if sub._current is not None:
                # Leftover invocation from an abandoned transaction.
                sub.cancel()
        config = self.cluster.shard(0).config
        self.counters.add("txns_started")

        def finish(committed: bool) -> None:
            self._coordinator = None
            self.counters.add("txns_committed" if committed else "txns_aborted")
            callback(committed)

        coordinator = TxnCoordinator(txid, writes_by_shard, clients, config, finish)
        self._coordinator = coordinator
        coordinator.start()
        return txid

    def invoke_txn(
        self, writes: List[Tuple[int, bytes]], timeout: float = 8.0
    ) -> Optional[bool]:
        """Blocking transaction: True committed, False aborted, None abandoned
        (outcome delegated to retransmission after a timeout)."""
        box: list = []
        self.invoke_txn_async(writes, box.append)
        ok = self.sim.run_until_condition(box.__len__, timeout=timeout)
        if not ok:
            self.abandon_txn()
            return None
        return box[0]

    def abandon_txn(self) -> None:
        """Stop waiting for the in-flight transaction without split-braining
        it: retransmit the decision the coordinator *reached* if it reached
        one (its commit decide may already be ordered on some shard — an
        invented abort would violate atomicity), abort otherwise.  Throwaway
        one-shot clients keep retransmitting until each shard's quorum
        acknowledges, which is exactly the coordinator-recovery story:
        anyone can finish a decided transaction."""
        coordinator = self._coordinator
        if coordinator is None:
            return
        coordinator.cancel()
        self._coordinator = None
        decision = coordinator.decision if coordinator.decision is not None else False
        op = encode_txn_decide(
            coordinator.txid,
            decision,
            coordinator.vote_certificate() if decision else None,
        )
        self.counters.add("txns_abandoned")
        for shard in coordinator.contacted:
            sub = coordinator.clients[shard]
            if sub._current is not None:
                sub.cancel()
            self._abandon_seq += 1
            finisher = self.cluster.shard(shard).client(
                f"{self.node_id}.x{self._abandon_seq}"
            )
            finisher.invoke_async(op, lambda result: None)


# -- builders ------------------------------------------------------------------------


def _kv_shards(
    num_shards: int,
    service_for: Callable[[int, str], object],
    config: Optional[BFTConfig],
    seed: int,
    objects_per_shard: int,
    net_config: Optional[NetworkConfig],
) -> ShardedCluster:
    """S :func:`~repro.bft.testing.kv_group` groups on one simulator, replica
    ``rid`` of shard ``s`` running the versions ``service_for(s, rid)`` lists:
    transactional (the extra cell holds the 2PC participant table, which
    certifies with the configuration's f+1), each shard over its own copy of
    ``net_config`` so per-shard bandwidth squeezes and drops stay
    independent."""
    sim = Simulator(seed=seed)
    config = config or BFTConfig()
    shardmap = ShardMap(num_shards, num_shards * objects_per_shard)
    clusters = [
        kv_group(
            partial(service_for, shard),
            config,
            sim=sim,
            num_slots=objects_per_shard + 1,
            net_config=dataclasses.replace(net_config) if net_config is not None else None,
            transactional=True,
            weak_quorum=config.weak_quorum,
        )
        for shard in range(num_shards)
    ]
    return ShardedCluster(clusters, shardmap)


def sharded_kv_cluster(
    num_shards: int,
    config: Optional[BFTConfig] = None,
    seed: int = 0,
    objects_per_shard: int = 16,
    net_config: Optional[NetworkConfig] = None,
) -> ShardedCluster:
    """S transactional KV groups on one simulator."""
    return _kv_shards(
        num_shards, lambda _s, _rid: [KVStateMachine], config, seed, objects_per_shard, net_config
    )


def sharded_recording_cluster(
    num_shards: int,
    config: Optional[BFTConfig] = None,
    seed: int = 0,
    objects_per_shard: int = 8,
    net_config: Optional[NetworkConfig] = None,
) -> Tuple[ShardedCluster, List[HistoryRecorder]]:
    """Recording variant for the safety oracles: one
    :class:`~repro.bft.testing.HistoryRecorder` per shard, returned in shard
    order."""
    recorders = [HistoryRecorder() for _ in range(num_shards)]

    def service_for(shard: int, replica_id: str):
        return [partial(RecordingKV, recorders[shard], replica_id)]

    system = _kv_shards(num_shards, service_for, config, seed, objects_per_shard, net_config)
    return system, recorders
