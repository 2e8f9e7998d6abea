"""The fused-backup tier: one XOR-parity backup spanning the shard groups.

3f+1 full replicas *per shard* is the cost that makes sharding expensive.
Following the fused-state-machine line of work (Balasubramanian & Garg) and
Shoker's universal-redundancy argument (PAPERS.md), this tier keeps one
extra **fused node** holding ONE parity block, the XOR of the S shard
groups' abstract arrays — instead of S extra full replicas — yet can rebuild
any one group's entire abstract state after a catastrophic loss (> f
correlated faults: every disk of the group gone, the scenario the
``destroy_group`` campaign step injects).

BASE is what makes this tractable: the *abstract* state is an enumerable
array of sized object encodings, digest-indexed by the partition tree, so a
parity block over S heterogeneous services is well-defined without knowing
anything about their concrete implementations (docs/fusion.md).

Currency protocol (checkpoint granularity):

* Every replica hosts a :class:`FusionFeeder` (attached per
  :class:`~repro.bft.recovery.ReplicaHost`, so it survives reboots).  When a
  checkpoint becomes stable, the feeder diffs the new checkpoint against the
  previous stable one leaf-by-leaf and sends a
  :class:`~repro.bft.messages.ParityUpdate` — XORed fixed-width cell deltas
  plus the stable-checkpoint certificate — to the fused node.
* The fused node applies an update once ``f+1`` replicas of the shard sent
  byte-identical deltas (one of them is honest) and the attached certificate
  verifies; the parity is an XOR, so it folds the delta straight into its
  parity block.  It then acks, letting feeders advance their
  garbage-collection pin: a shard replica never discards the checkpoint the
  fused node's parity still stands at, so the tier can always
  fetch a consistent full block (:class:`~repro.bft.messages.FusionFetch`)
  for bootstrap, resync, or reconstruction.

Reconstruction (wired into the existing recovery path):

1. :meth:`ShardedCluster.destroy_group` declares a group lost; the tier
   opens an MTTR episode and the fused node freezes its parity.
2. It fetches the S-1 surviving groups' full blocks at exactly the seqnos
   its parity stands at (the GC pin guarantees the donors still hold them),
   verifying each against its checkpoint certificate leaf-by-leaf.
3. The XOR of the parity and the S-1 survivors is the lost block
   (:func:`~repro.base.fusion.xor_blocks`); the rebuilt leaves are
   verified against the Merkle root in the lost group's *latest checkpoint
   certificate* — byte-identical or the episode fails loudly.
4. Every replica of the lost group is rebooted at once through the existing
   ``recover_now``, with the rebuilt objects handed over as what the reboot
   restores: where an ordinary recovery asks the group for a certificate,
   each replacement replica installs the verified block through
   ``StateTransferManager.install`` the moment its reboot ends.  (No blank
   replica ever asks a blank peer for state: a pristine replica would serve
   its implicit genesis certificate.)
5. Service resumes; the episode records MTTR, bytes, and outcome for
   :meth:`ShardedCluster.repair_status` and the reconstruction-integrity
   oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.base.fusion import (
    FusionError,
    cell_width_for,
    encode_cell,
    pack_block,
    unpack_block,
    xor_blocks,
    xor_bytes,
)
from repro.base.partition import PartitionTree
from repro.bft.messages import (
    CheckpointCert,
    FusionBlock,
    FusionFetch,
    ParityAck,
    ParityUpdate,
)
from repro.bft.recovery import REBOOT_TIME
from repro.bft.replica import verify_checkpoint_cert
from repro.crypto.auth import MacVerificationError
from repro.crypto.digest import digest
from repro.util.stats import Counters
from repro.util.trace import emit

#: Default fixed cell width: u64 lm + u32 len + up to 84 value bytes.  The
#: tier refuses (loudly, via counters and a stalled feed) values that outgrow
#: it; deployments size it for their workload.
DEFAULT_SLOT_WIDTH = 96


@dataclass
class ReconstructionRecord:
    """One reconstruction episode (MTTR accounting + oracle evidence)."""

    shard: int
    started_at: float
    completed_at: Optional[float] = None
    target_seqno: Optional[int] = None
    ok: Optional[bool] = None
    detail: str = ""
    blocks_fetched: int = 0
    bytes_fetched: int = 0

    @property
    def mttr(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def to_dict(self) -> Dict:
        return {**asdict(self), "mttr": self.mttr}


class FusionFeeder:
    """Replica-side half of the currency protocol (one per ReplicaHost).

    Lives on the *host*, not the replica, so acknowledgement state and the
    GC pin survive reboots; :class:`~repro.bft.recovery.ReplicaHost` relinks
    ``replica.fusion_feeder`` on every reboot.
    """

    def __init__(self, tier: "FusedBackupTier", shard: int) -> None:
        self.tier = tier
        self.shard = shard
        #: The newest checkpoint seqno the fused node acknowledged: the GC
        #: floor, since a checkpoint its parity still stands at must remain
        #: fetchable for resync and reconstruction.
        self.acked = 0

    def gc_floor(self, stable_seqno: int) -> int:
        return min(self.acked, stable_seqno)

    def on_stable(self, replica, cert: CheckpointCert) -> None:
        """Replica hook, called inside ``_mark_stable`` *before* checkpoint
        GC — both the previous stable checkpoint and the new one are live."""
        manager = replica.service.manager
        if cert.seqno == 0:
            return
        seqnos = [s for s in manager.checkpoint_seqnos() if s < cert.seqno]
        if not seqnos:
            # Nothing to diff against (first stable after a state-transfer
            # install); the fused node resyncs a full block if it needs one.
            replica.counters.add("fusion_feed_skipped")
            return
        base = max(seqnos)
        tier = self.tier
        deltas: List[Tuple[int, bytes]] = []
        overflow = False
        for index in range(tier.num_leaves):
            old_leaf = manager.get_leaf(base, index)
            new_leaf = manager.get_leaf(cert.seqno, index)
            if old_leaf is None or new_leaf is None:
                replica.counters.add("fusion_feed_skipped")
                return
            if old_leaf == new_leaf:
                continue
            old_value = manager.get_object_at(base, index)
            new_value = manager.get_object_at(cert.seqno, index)
            if old_value is None or new_value is None:
                replica.counters.add("fusion_feed_skipped")
                return
            if (
                cell_width_for(len(old_value)) > tier.slot_width
                or cell_width_for(len(new_value)) > tier.slot_width
            ):
                overflow = True
                break
            deltas.append(
                (
                    index,
                    xor_bytes(
                        encode_cell(old_leaf[0], old_value, tier.slot_width),
                        encode_cell(new_leaf[0], new_value, tier.slot_width),
                    ),
                )
            )
        if overflow:
            # The value outgrew the stripe: the feed stalls (pins hold, the
            # tier's coverage stays at its last applied checkpoint) rather
            # than ship a truncated cell.  Loud in counters and docs.
            replica.counters.add("fusion_feed_overflow")
            return
        update = ParityUpdate(
            shard=self.shard,
            base_seqno=base,
            seqno=cert.seqno,
            slot_width=tier.slot_width,
            num_leaves=tier.num_leaves,
            deltas=deltas,
            cert=cert,
        )
        replica.counters.add("fusion_updates_sent")
        replica.counters.add(
            "fusion_update_bytes", sum(len(d) for _i, d in deltas)
        )
        replica.auth_send(tier.node.node_id, update)

    def on_message(self, replica, message, src: str) -> None:
        """Fused-tier traffic reaching our replica (it routes here only while
        a feeder is attached).  Only this tier's own fused node is heard:
        ``KeyTable`` derives a session key for any principal, so a valid MAC
        alone says nothing about who may read our state."""
        if not replica.check_auth(message, expected_sender=src):
            return
        known = src == message.parity_id == self.tier.node.node_id
        if isinstance(message, ParityAck):
            if not known:
                replica.counters.add("fusion_acks_ignored")
            elif message.seqno > self.acked:
                self.acked = message.seqno
                replica.counters.add("fusion_acks")
        elif isinstance(message, FusionFetch):
            if known:
                self._serve_block(replica, message, src)
            else:
                replica.counters.add("fusion_fetches_refused")

    def _serve_block(self, replica, message: FusionFetch, src: str) -> None:
        """Send a full fixed-width block of our abstract state to a fused
        node — for bootstrap (seqno 0 = latest stable) or reconstruction
        (exact pinned seqno)."""
        manager = replica.service.manager
        seqno = message.seqno
        cert: Optional[CheckpointCert] = None
        if seqno == 0:
            cert = replica.servable_cert()
            if cert is None:
                replica.counters.add("fusion_fetches_refused")
                return
            seqno = cert.seqno
        elif seqno == replica.stable_seqno and replica.stable_cert is not None:
            # Exact fetch at the current stable checkpoint: certified.
            cert = replica.stable_cert
        # An exact fetch below the stable checkpoint (GC-pinned) is served
        # without a certificate: the fused node verifies the block against
        # the certified root it already holds for that seqno.
        leaves = []
        for index in range(self.tier.num_leaves):
            leaf = manager.get_leaf(seqno, index)
            value = manager.get_object_at(seqno, index)
            if leaf is None or value is None:
                # We no longer (or never did) hold that checkpoint.
                replica.counters.add("fusion_fetches_refused")
                return
            leaves.append((leaf[0], value))
        try:
            block = pack_block(leaves, message.slot_width)
        except FusionError:
            replica.counters.add("fusion_serve_overflow")
            return
        replica.counters.add("fusion_blocks_served")
        replica.counters.add("fusion_block_bytes_served", len(block))
        replica.auth_send(
            src,
            FusionBlock(
                replica_id=replica.node_id,
                shard=message.shard,
                seqno=seqno,
                slot_width=message.slot_width,
                num_leaves=self.tier.num_leaves,
                block=block,
                cert=cert,
            ),
        )


class FusedNode:
    """The fused node: a single parity block spanning every shard group.

    Registered under one id (``F0``) on *every* shard's network; each
    shard's traffic is authenticated with that shard's key table.  Not a
    replica — it holds no abstract state of its own, orders nothing, and
    speaks only the parity-currency and block-fetch protocol.
    """

    def __init__(self, tier: "FusedBackupTier") -> None:
        self.tier = tier
        self.node_id = "F0"
        self.counters = Counters()
        self.parity: Optional[bytes] = None
        #: Per shard, the checkpoint seqno the parity stands at.
        self.applied: Dict[int, int] = {}
        #: Per shard, the stable-checkpoint certificate at ``applied``.
        self.certs: Dict[int, CheckpointCert] = {}
        # Bootstrap/rebuild staging: shard -> (seqno, block, cert).
        self._staged: Dict[int, Tuple[int, bytes, CheckpointCert]] = {}
        # Update quorum tracking: key -> (senders, exemplar, verified cert).
        self._votes: Dict[Tuple, Dict] = {}
        # While reconstructing, updates are buffered instead of applied (the
        # parity must stay frozen at the seqnos the survivor fetch targets).
        self.frozen = False
        self._buffered: List[ParityUpdate] = []
        # Exact-seqno fetch targets during reconstruction: shard -> seqno.
        self._collect: Dict[int, int] = {}
        self._collected: Dict[int, bytes] = {}
        self._on_collected: Optional[Callable[[Dict[int, bytes]], None]] = None

    # -- wiring ---------------------------------------------------------------------

    def attach(self) -> None:
        for shard in range(self.tier.num_shards):
            self.tier.network(shard).register(self.node_id, self._receive_for(shard))

    def _receive_for(self, shard: int):
        def receive(message, src: str) -> None:
            self.on_message(shard, message, src)

        return receive

    def _check_auth(self, shard: int, message, src: str) -> bool:
        auth = getattr(message, "auth", None)
        if auth is None or auth.sender != src:
            self.counters.add("fusion_auth_missing")
            return False
        try:
            self.tier.keys(shard).check_authenticator(
                auth, self.node_id, message.signable_bytes()
            )
        except MacVerificationError:
            self.counters.add("fusion_auth_failed")
            return False
        return True

    def _send(self, shard: int, recipients: List[str], message) -> None:
        """Authenticate ``message`` once, for everyone it goes to: the copies
        share one object, so a per-recipient MAC would be overwritten while
        the earlier copies are still in flight."""
        message.auth = self.tier.keys(shard).make_authenticator(
            self.node_id, recipients, message.signable_bytes()
        )
        self.tier.network(shard).multicast(self.node_id, recipients, message)

    def on_message(self, shard: int, message, src: str) -> None:
        if isinstance(message, ParityUpdate):
            self.on_parity_update(shard, message, src)
        elif isinstance(message, FusionBlock):
            self.on_fusion_block(shard, message, src)
        else:
            self.counters.add("fusion_unknown_message")

    # -- incremental updates ----------------------------------------------------------

    def on_parity_update(self, shard: int, message: ParityUpdate, src: str) -> None:
        if not self._check_auth(shard, message, src):
            return
        if message.shard != shard or src not in self.tier.replica_ids(shard):
            self.counters.add("fusion_updates_invalid")
            return
        if (
            message.slot_width != self.tier.slot_width
            or message.num_leaves != self.tier.num_leaves
        ):
            self.counters.add("fusion_updates_invalid")
            return
        applied = self.applied.get(shard)
        if applied is not None and message.seqno <= applied:
            # Stale retransmission: re-ack so the sender's GC pin advances.
            self.counters.add("fusion_updates_stale")
            self._send(
                shard,
                [src],
                ParityAck(parity_id=self.node_id, shard=shard, seqno=applied),
            )
            return
        key = (shard, message.base_seqno, message.seqno, digest(message.signable_bytes()))
        entry = self._votes.setdefault(
            key, {"senders": set(), "message": message, "cert": None}
        )
        entry["senders"].add(src)
        if entry["cert"] is None and self.tier.verify_cert(
            shard, message.seqno, message.cert
        ):
            entry["cert"] = message.cert
        quorum = self.tier.weak_quorum(shard)
        if len(entry["senders"]) < quorum or entry["cert"] is None:
            return
        certified: ParityUpdate = entry["message"]
        del self._votes[key]
        if self.frozen:
            self._buffered.append(certified)
            self.counters.add("fusion_updates_buffered")
            return
        self._apply_update(shard, certified)

    def _apply_update(self, shard: int, message: ParityUpdate) -> None:
        applied = self.applied.get(shard)
        if applied is not None and message.seqno <= applied:
            return
        staged = self._staged.get(shard)
        if staged is not None and self.parity is None:
            # Still bootstrapping: patch the staged plain block directly.
            if message.base_seqno != staged[0]:
                self.counters.add("fusion_updates_gap")
                return
            self._staged[shard] = (
                message.seqno, self._fold(staged[1], message), message.cert
            )
            self._finish_apply(shard, message)
            return
        if applied is None or message.base_seqno != applied or self.parity is None:
            # Missed an interval (lost update, width overflow at the feeder,
            # or not bootstrapped yet): a full block resync is the only way
            # to re-establish currency for this shard.
            self.counters.add("fusion_updates_gap")
            self.tier.request_rebuild()
            return
        self.parity = self._fold(self.parity, message)
        self._finish_apply(shard, message)

    def _fold(self, block: bytes, message: ParityUpdate) -> bytes:
        """XOR an update's cell deltas into ``block``: a staged data block
        while bootstrapping, the parity after, the same operation."""
        for index, delta in message.deltas:
            offset = index * self.tier.slot_width
            end = offset + len(delta)
            if offset < 0 or end > len(block):
                raise FusionError("delta region outside the block")
            block = block[:offset] + xor_bytes(block[offset:end], delta) + block[end:]
        return block

    def _finish_apply(self, shard: int, message: ParityUpdate) -> None:
        self.applied[shard] = message.seqno
        self.certs[shard] = message.cert
        self.counters.add("fusion_updates_applied")
        self.counters.add("fusion_update_lag", message.seqno - message.base_seqno)
        self.counters.add(
            "fusion_parity_delta_bytes", sum(len(d) for _i, d in message.deltas)
        )
        emit(
            self.tier.tracer,
            self.node_id,
            "fusion_parity_applied",
            shard=shard,
            seqno=message.seqno,
        )
        # Ack every replica of the shard (not just the quorum senders): late
        # feeders must release their GC pins too.
        self._send(
            shard,
            self.tier.replica_ids(shard),
            ParityAck(parity_id=self.node_id, shard=shard, seqno=message.seqno),
        )
        self._votes = {
            k: v for k, v in self._votes.items() if not (k[0] == shard and k[2] <= message.seqno)
        }

    # -- full blocks (bootstrap / resync / reconstruction) -----------------------------

    def request_block(self, shard: int, seqno: int) -> None:
        """Ask every replica of ``shard`` for its full block (0 = latest)."""
        fetch = FusionFetch(
            parity_id=self.node_id,
            shard=shard,
            seqno=seqno,
            slot_width=self.tier.slot_width,
        )
        self.counters.add("fusion_fetches_sent")
        self._send(shard, self.tier.replica_ids(shard), fetch)

    def on_fusion_block(self, shard: int, message: FusionBlock, src: str) -> None:
        if not self._check_auth(shard, message, src):
            return
        if (
            message.shard != shard
            or message.replica_id != src
            or src not in self.tier.replica_ids(shard)
            or message.slot_width != self.tier.slot_width
            or message.num_leaves != self.tier.num_leaves
            or len(message.block) != self.tier.slot_width * self.tier.num_leaves
        ):
            self.counters.add("fusion_blocks_invalid")
            return
        # Leaf-by-leaf verification: the block's cells must hash back to a
        # certified Merkle root.  One valid certified block is enough — no
        # honest-majority counting needed.
        try:
            root = self.tier.root_of(message.block)
        except FusionError:
            self.counters.add("fusion_blocks_invalid")
            return
        collecting = shard in self._collect
        if collecting:
            # Reconstruction fetch at the exact seqno our parity stands at.
            # The donor may have GC'd its certificate for it; we verify
            # against the certified root we already hold for that seqno.
            if message.seqno != self._collect[shard] or shard in self._collected:
                return
            cert = self.certs[shard]
        elif self.tier.verify_cert(shard, message.seqno, message.cert):
            cert = message.cert
        else:
            self.counters.add("fusion_blocks_bad_cert")
            return
        if root != cert.state_digest:
            self.counters.add("fusion_blocks_bad_root")
            return
        self.counters.add("fusion_blocks_received")
        self.counters.add("fusion_block_bytes", len(message.block))
        if collecting:
            self._collected[shard] = message.block
            if len(self._collected) == len(self._collect) and self._on_collected:
                callback, self._on_collected = self._on_collected, None
                callback(dict(self._collected))
        elif self.parity is None and shard not in self._staged:
            self._staged[shard] = (message.seqno, message.block, cert)
            self.applied[shard] = message.seqno
            self.certs[shard] = cert
            if len(self._staged) == self.tier.num_shards:
                self._assemble_parity()

    def _assemble_parity(self) -> None:
        blocks = [self._staged[s][1] for s in range(self.tier.num_shards)]
        self.parity = xor_blocks(blocks, self.tier.num_shards)
        for shard in range(self.tier.num_shards):
            seqno, _block, cert = self._staged[shard]
            self.applied[shard] = seqno
            self.certs[shard] = cert
        self._staged.clear()
        self.counters.add("fusion_bootstraps")
        emit(self.tier.tracer, self.node_id, "fusion_parity_ready")

    def collect_survivors(
        self,
        lost_shard: int,
        callback: Callable[[Dict[int, bytes]], None],
    ) -> None:
        """Freeze the parity and fetch every surviving shard's block at
        exactly the seqno the parity stands at (the GC pins hold them)."""
        self.frozen = True
        self._collect = {
            s: self.applied[s]
            for s in range(self.tier.num_shards)
            if s != lost_shard
        }
        self._collected = {}
        self._on_collected = callback
        for shard, seqno in sorted(self._collect.items()):
            self.request_block(shard, seqno)

    def unfreeze(self) -> None:
        self.frozen = False
        self._collect = {}
        self._collected = {}
        self._on_collected = None
        buffered, self._buffered = self._buffered, []
        for message in buffered:
            self._apply_update(message.shard, message)

    def storage_bytes(self) -> int:
        """Bytes this fused node durably holds: the parity block plus the
        per-shard certificates and applied-seqno table."""
        total = len(self.parity) if self.parity is not None else 0
        for _shard, (_seqno, block, _cert) in sorted(self._staged.items()):
            total += len(block)
        for shard in sorted(self.certs):
            total += self.certs[shard].wire_size() + 8
        return total


class FusedBackupTier:
    """The fused node + per-host feeders + the reconstruction coordinator."""

    def __init__(
        self,
        sharded,
        slot_width: int = DEFAULT_SLOT_WIDTH,
        tracer=None,
    ) -> None:
        self.sharded = sharded
        self.num_shards = len(sharded.clusters)
        if self.num_shards < 2:
            raise FusionError("fusion needs at least two shard groups")
        self.slot_width = slot_width
        self.tracer = tracer
        self.counters = Counters()
        self.node = FusedNode(self)
        self.reconstructions: List[ReconstructionRecord] = []
        self._reconstructing = False
        self._rebuild_pending = False
        self.sim = sharded.sim
        # Every shard group must expose the same abstract-array geometry for
        # blocks to be XOR-compatible.
        geometries = sorted(
            {
                (service.manager.total_leaves, service.manager.tree.arity)
                for service in (
                    next(iter(cluster.hosts.values())).service
                    for cluster in sharded.clusters
                )
            }
        )
        if len(geometries) != 1:
            raise FusionError(f"shard groups differ in geometry: {geometries}")
        self.num_leaves, self.arity = geometries[0]

    # -- per-shard lookups ---------------------------------------------------------------

    def cluster(self, shard: int):
        return self.sharded.clusters[shard]

    def network(self, shard: int):
        return self.cluster(shard).network

    def keys(self, shard: int):
        return self.cluster(shard).keys

    def replica_ids(self, shard: int) -> List[str]:
        return self.cluster(shard).config.replica_ids

    def weak_quorum(self, shard: int) -> int:
        return self.cluster(shard).config.weak_quorum

    def verify_cert(
        self, shard: int, seqno: int, cert: Optional[CheckpointCert]
    ) -> bool:
        """Certs ride outside MAC'd payloads because they are self-verifying;
        a fused node checks them exactly as the shard's replicas do."""
        if cert is None or cert.seqno != seqno:
            return False
        cluster = self.cluster(shard)
        service = next(iter(cluster.hosts.values())).service
        return verify_checkpoint_cert(cert, cluster.config, cluster.sigs, service)

    def root_of(self, block: bytes) -> bytes:
        """Merkle root of a block's cells (leaf-by-leaf verification)."""
        leaves = unpack_block(block, self.slot_width, self.num_leaves)
        tree = PartitionTree(self.num_leaves, arity=self.arity)
        tree.update_leaves(
            [(i, digest(value), lm) for i, (lm, value) in enumerate(leaves)]
        )
        return tree.root()[1]

    # -- attach -------------------------------------------------------------------------

    def attach(self) -> None:
        """Register the fused node, hook every replica host's feeder, and
        bootstrap parity from the groups' latest stable checkpoints."""
        self.sharded.fusion = self
        self.node.attach()
        for shard, cluster in enumerate(self.sharded.clusters):
            for host in cluster.hosts.values():
                feeder = FusionFeeder(self, shard)
                host.fusion_feeder = feeder
                host.replica.fusion_feeder = feeder
        for shard in range(self.num_shards):
            self.node.request_block(shard, 0)

    def ready(self) -> bool:
        return self.node.parity is not None

    def request_rebuild(self) -> None:
        """Full parity rebuild after a currency gap: refetch every shard's
        latest certified block and re-encode.  Not possible while a group is
        lost — reconstruction must finish first."""
        node = self.node
        if self._reconstructing or node.frozen:
            self._rebuild_pending = True
            return
        self.counters.add("fusion_rebuilds")
        node.parity = None
        node._staged.clear()
        for shard in range(self.num_shards):
            node.request_block(shard, 0)

    # -- storage accounting --------------------------------------------------------------

    def storage_bytes(self) -> int:
        return self.node.storage_bytes()

    def abstract_state_bytes(self) -> int:
        """Total abstract-state bytes across all groups — the cost one
        *additional full replica per group* would duplicate (the baseline the
        fusion bench compares storage against)."""
        total = 0
        for cluster in self.sharded.clusters:
            host = next(iter(cluster.hosts.values()))
            manager = host.service.manager
            for index in range(manager.total_leaves):
                total += len(manager._get_obj(index)) + 8
        return total

    def total_counters(self) -> Counters:
        merged = Counters()
        merged.merge(self.counters)
        merged.merge(self.node.counters)
        return merged

    def idle(self) -> bool:
        return not self._reconstructing

    # -- reconstruction ------------------------------------------------------------------

    def on_group_destroyed(self, shard: int) -> None:
        """Entry point, called by :meth:`ShardedCluster.destroy_group`."""
        record = ReconstructionRecord(shard, self.sim.now())
        self.reconstructions.append(record)
        node = self.node
        if self._reconstructing:
            record.ok = False
            record.detail = "reconstruction already in progress"
            record.completed_at = self.sim.now()
            return
        if node.parity is None or shard not in node.applied:
            record.ok = False
            record.detail = "fused tier has no parity coverage for this shard"
            record.completed_at = self.sim.now()
            self.counters.add("fusion_reconstructions_failed")
            return
        self._reconstructing = True
        record.target_seqno = node.applied[shard]
        self.counters.add("fusion_reconstructions_started")
        emit(
            self.tracer,
            "fusion-tier",
            "reconstruction_started",
            shard=shard,
            seqno=record.target_seqno,
        )
        node.collect_survivors(
            shard, lambda blocks: self._rebuild_lost(record, blocks)
        )
        self._watchdog(record)

    def _watchdog(self, record: ReconstructionRecord, timeout: float = 30.0) -> None:
        def check() -> None:
            if record.completed_at is None:
                self._fail(record, "reconstruction timed out")

        self.sim.schedule(timeout, check)

    def _fail(self, record: ReconstructionRecord, detail: str) -> None:
        if record.completed_at is not None:
            return
        record.ok = False
        record.detail = detail
        record.completed_at = self.sim.now()
        self.counters.add("fusion_reconstructions_failed")
        emit(
            self.tracer,
            "fusion-tier",
            "reconstruction_failed",
            shard=record.shard,
            detail=detail,
        )
        self._reconstructing = False
        self.node.unfreeze()

    def _rebuild_lost(
        self, record: ReconstructionRecord, blocks: Dict[int, bytes]
    ) -> None:
        node = self.node
        record.blocks_fetched = len(blocks)
        record.bytes_fetched = sum(len(b) for b in blocks.values())
        assert node.parity is not None
        try:
            rebuilt = xor_blocks([*blocks.values(), node.parity], self.num_shards)
        except FusionError as exc:
            self._fail(record, f"decode failed: {exc}")
            return
        cert = node.certs[record.shard]
        try:
            root = self.root_of(rebuilt)
        except FusionError as exc:
            self._fail(record, f"rebuilt block malformed: {exc}")
            return
        if root != cert.state_digest:
            self._fail(
                record,
                "rebuilt Merkle root does not match the group's latest "
                "checkpoint certificate",
            )
            return
        emit(
            self.tracer,
            "fusion-tier",
            "reconstruction_verified",
            shard=record.shard,
            seqno=cert.seqno,
        )
        leaves = unpack_block(rebuilt, self.slot_width, self.num_leaves)
        objects = {i: (value, lm) for i, (lm, value) in enumerate(leaves)}
        self._seed_group(record, objects, cert)

    def _seed_group(
        self,
        record: ReconstructionRecord,
        objects: Dict[int, Tuple[bytes, int]],
        cert: CheckpointCert,
    ) -> None:
        """Reboot every replacement replica at once through the existing
        recovery machinery; each restores from the verified rebuilt state
        (``StateTransferManager.install``) the moment its reboot ends, and
        the episode completes when the last one has.

        Pushed rather than fetched: a pristine rebooted replica answers a
        peer's root fetch with its implicit *genesis* certificate whatever
        ``min_seqno`` says, so blank replicas asking each other could
        complete one another's recovery at seqno 0."""
        hosts = self.cluster(record.shard).hosts
        waiting = set(hosts)

        def restore(replica) -> None:
            try:
                installed = replica.transfer.install(objects, cert)
            except Exception as exc:  # loud, never a silent wrong answer
                self._fail(record, f"seed install failed: {exc}")
                return
            if not installed:
                self._fail(record, "seeded service root mismatch")
                return
            self.counters.add("fusion_replicas_seeded")
            emit(
                self.tracer,
                "fusion-tier",
                "reconstruction_seeded",
                shard=record.shard,
                replica=replica.node_id,
            )
            waiting.discard(replica.node_id)
            if not waiting:
                self._complete(record, cert)

        def reboot(rid: str) -> None:
            host = hosts[rid]
            if record.completed_at is None and not host.recover_now(restore=restore):
                # The proactive rotation had this host down for its own
                # reboot when the group was destroyed; it refuses until that
                # recovery (of a blank replica, from its seeded peers) is over.
                self.sim.schedule(REBOOT_TIME, lambda: reboot(rid))

        for rid in sorted(hosts):
            reboot(rid)

    def _complete(self, record: ReconstructionRecord, cert: CheckpointCert) -> None:
        if record.completed_at is not None:
            return
        record.ok = True
        record.completed_at = self.sim.now()
        self.counters.add("fusion_reconstructions_completed")
        emit(
            self.tracer,
            "fusion-tier",
            "reconstruction_completed",
            shard=record.shard,
            seqno=cert.seqno,
            mttr=record.mttr,
        )
        self._reconstructing = False
        self.node.unfreeze()
        if self._rebuild_pending:
            self._rebuild_pending = False
            self.request_rebuild()
