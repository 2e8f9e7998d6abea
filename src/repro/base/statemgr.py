"""Abstract-state manager: the checkpointing half of the BASE library.

Implements the paper's scheme exactly (section 2.2):

* the abstract state is an array of variable-sized objects, reached only
  through the ``get_obj`` upcall (the abstraction function applied to one
  index);
* ``modify(i)`` must be invoked by the conformance wrapper before the first
  mutation of object ``i`` after a checkpoint — the manager snapshots the old
  value lazily (copy-on-write), so a checkpoint stores only the objects whose
  value has since changed;
* checkpoints are labelled with the sequence number of the last request they
  reflect and are discarded once a later checkpoint becomes stable;
* a hierarchical partition tree over per-object digests supports efficient,
  verifiable state transfer.

The manager is shared by every BASE service (NFS, OODB, test services); the
service supplies only the ``get_obj`` callable.

Beyond the service's objects, the manager hosts a small number of hidden
**client-table shards** as extra leaves of the abstract state.  They hold
the per-client last-request/last-reply records that give the service its
at-most-once execution semantics.  Keeping them *inside* the checkpointed,
transferable state (as the BFT library does with its reply cache) is what
makes deduplication survive state transfer and proactive recovery — a
recovering replica must not re-execute a stale request that the others
skipped.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.base.partition import PartitionTree, TreeSnapshot
from repro.crypto.digest import digest
from repro.util.stats import Counters
from repro.util.xdr import XdrDecoder, XdrEncoder

DEFAULT_CLIENT_SHARDS = 4


def encode_client_shard(entries: Dict[str, Tuple[int, bytes]]) -> bytes:
    """Canonical encoding of one client-table shard (sorted by client)."""
    enc = XdrEncoder()
    items = sorted(entries.items())
    enc.pack_u32(len(items))
    for client_id, (reqid, reply) in items:
        enc.pack_string(client_id)
        enc.pack_u64(reqid)
        enc.pack_opaque(reply)
    return enc.getvalue()


def decode_client_shard(blob: bytes) -> Dict[str, Tuple[int, bytes]]:
    dec = XdrDecoder(blob)
    count = dec.unpack_u32()
    out: Dict[str, Tuple[int, bytes]] = {}
    for _ in range(count):
        client_id = dec.unpack_string()
        reqid = dec.unpack_u64()
        out[client_id] = (reqid, dec.unpack_opaque())
    dec.done()
    return out


_EMPTY_SHARD = encode_client_shard({})


def genesis_root_digest(
    num_objects: int,
    initial_object: Callable[[int], bytes],
    arity: int = 8,
    client_shards: int = DEFAULT_CLIENT_SHARDS,
) -> bytes:
    """Root digest of a spec's initial abstract state (lm = 0 everywhere,
    client-table shards empty).

    A pure function of the specification: replicas use it to recognize and
    verify the implicit genesis checkpoint without any certificate."""
    tree = PartitionTree(num_objects + client_shards, arity=arity)
    updates = [(index, digest(initial_object(index)), 0) for index in range(num_objects)]
    updates += [
        (num_objects + shard, digest(_EMPTY_SHARD), 0) for shard in range(client_shards)
    ]
    tree.update_leaves(updates)
    return tree.root()[1]


class _Checkpoint:
    """One live checkpoint: COW copies plus the frozen partition tree."""

    __slots__ = ("seqno", "cow", "tree")

    def __init__(self, seqno: int, tree: TreeSnapshot) -> None:
        self.seqno = seqno
        self.cow: Dict[int, bytes] = {}
        self.tree = tree


class _SpecFrame:
    """Undo record for one speculatively executed batch.

    Holds each touched object's first pre-speculation encoding plus the set
    of indices the frame *introduced* into the modified set.  Tree leaves and
    memos need no restoration: they only change at ``take_checkpoint``, which
    is forbidden while frames are open.
    """

    __slots__ = ("undo", "new_modified")

    def __init__(self) -> None:
        self.undo: Dict[int, bytes] = {}
        self.new_modified: Set[int] = set()


class AbstractStateManager:
    """Copy-on-write checkpointing over an abstract-object array."""

    def __init__(
        self,
        num_objects: int,
        get_obj: Callable[[int], bytes],
        arity: int = 8,
        client_shards: int = DEFAULT_CLIENT_SHARDS,
    ) -> None:
        self.num_objects = num_objects
        self.client_shards = client_shards
        self.total_leaves = num_objects + client_shards
        self._service_get_obj = get_obj
        self._client_table: List[Dict[str, Tuple[int, bytes]]] = [
            {} for _ in range(client_shards)
        ]
        # client id -> leaf index of its shard (a pure function of the id and
        # the two sizes above; one entry per client ever looked up).
        self._shard_memo: Dict[str, int] = {}
        self.counters = Counters()
        self.tree = PartitionTree(self.total_leaves, arity=arity, counters=self.counters)
        self._checkpoints: "OrderedDict[int, _Checkpoint]" = OrderedDict()
        self._modified: Set[int] = set()
        # COW index: object index -> ascending checkpoint labels holding a COW
        # copy of it, so get_object_at is a bisect probe instead of a scan.
        self._cow_labels: Dict[int, List[int]] = {}
        # Encoding/digest of each object refreshed at the latest checkpoint
        # (hot set only: entries not re-modified by the next checkpoint are
        # dropped).  Lets modify() take its COW copy without re-running the
        # get_obj upcall and take_checkpoint skip re-hashing unchanged
        # encodings.
        self._encoding_memo: Dict[int, bytes] = {}
        self._digest_memo: Dict[int, bytes] = {}
        # Open speculation frames, oldest first (fast path): each holds the
        # undo record for one tentatively executed batch.
        self._spec_frames: List[_SpecFrame] = []
        self._initialize_digests()

    def _get_obj(self, index: int) -> bytes:
        """Dispatch: service objects come from the abstraction function;
        client-table shards are the manager's own."""
        if index < self.num_objects:
            return self._service_get_obj(index)
        return encode_client_shard(self._client_table[index - self.num_objects])

    def _initialize_digests(self) -> None:
        self.tree.update_leaves(
            [(index, digest(self._get_obj(index)), 0) for index in range(self.total_leaves)]
        )

    # -- the client table (at-most-once execution state) -----------------------------

    def _shard_of(self, client_id: str) -> int:
        shard_index = self._shard_memo.get(client_id)
        if shard_index is None:
            # Stable hash: Python's str hash is per-process randomized, which
            # would shard clients differently at different replicas.
            stable = int.from_bytes(digest(client_id.encode())[:4], "big")
            shard_index = self.num_objects + (stable % self.client_shards)
            self._shard_memo[client_id] = shard_index
        return shard_index

    def record_reply(self, client_id: str, reqid: int, reply: bytes) -> None:
        """Record the latest executed request per client — replicated state,
        so deduplication survives state transfer and recovery."""
        shard_index = self._shard_of(client_id)
        self.modify(shard_index)
        self._client_table[shard_index - self.num_objects][client_id] = (reqid, reply)

    def last_recorded(self, client_id: str) -> Optional[Tuple[int, bytes]]:
        shard_index = self._shard_of(client_id)
        return self._client_table[shard_index - self.num_objects].get(client_id)

    # -- the modify upcall (paper Figure 1) ---------------------------------------

    def modify(self, index: int) -> None:
        """Must be called before mutating abstract object ``index``.

        Lazily copies the object's pre-mutation value into the most recent
        checkpoint (if any) the first time the object changes after it.
        """
        if not 0 <= index < self.total_leaves:
            raise IndexError(f"object index {index} out of range")
        if self._checkpoints:
            latest = next(reversed(self._checkpoints))
            checkpoint = self._checkpoints[latest]
            if index not in checkpoint.cow:
                # The memo holds the object's encoding as of the latest
                # checkpoint; absent a modification since (which is exactly
                # this branch), it IS the pre-mutation value — no upcall.
                value = self._encoding_memo.get(index)
                if value is None:
                    value = self._get_obj(index)
                else:
                    self.counters.add("cow_upcalls_avoided")
                checkpoint.cow[index] = value
                self._cow_labels.setdefault(index, []).append(latest)
                self.counters.add("cow_copies")
                self.counters.add("cow_bytes", len(value))
        if self._spec_frames:
            frame = self._spec_frames[-1]
            if index not in frame.undo:
                frame.undo[index] = self._get_obj(index)
                self.counters.add("spec_undo_copies")
            if index not in self._modified:
                frame.new_modified.add(index)
        self._modified.add(index)

    # -- speculation frames (fast path) ---------------------------------------------

    def begin_speculation(self) -> None:
        """Open an undo frame: mutations until the matching commit/rollback
        are tentative.  Frames nest (one per speculated batch) and resolve
        strictly in order — oldest commits first, newest rolls back first."""
        self._spec_frames.append(_SpecFrame())
        self.counters.add("spec_frames_opened")

    def commit_speculation(self) -> None:
        """Promote the oldest open frame: its mutations become permanent.
        COW copies and modified-set entries it produced are already exactly
        what a non-speculative execution would have left behind."""
        if not self._spec_frames:
            raise ValueError("commit_speculation without an open frame")
        self._spec_frames.pop(0)

    def rollback_speculation(
        self, apply_objects: Callable[[Dict[int, bytes]], None]
    ) -> int:
        """Undo every open frame, newest first; returns how many were undone.

        ``apply_objects`` is the service's put upcall, invoked once per frame
        with the decoded service-object values to restore (client-table
        shards are restored internally).  The tree and memos were never
        touched by the frames — checkpoints cannot be taken while frames are
        open — so restoring the concrete values and the modified-set delta
        re-establishes the exact pre-speculation manager state.
        """
        rolled = len(self._spec_frames)
        while self._spec_frames:
            frame = self._spec_frames.pop()
            service_objects: Dict[int, bytes] = {}
            for index, value in frame.undo.items():
                if index < self.num_objects:
                    service_objects[index] = value
                else:
                    self._client_table[index - self.num_objects] = decode_client_shard(
                        value
                    )
            if service_objects:
                apply_objects(service_objects)
            self._modified.difference_update(frame.new_modified)
        if rolled:
            self.counters.add("spec_frames_rolled_back", rolled)
        return rolled

    # -- checkpoints ------------------------------------------------------------------

    def take_checkpoint(self, seqno: int) -> bytes:
        """Freeze the current abstract state as checkpoint ``seqno``."""
        if self._spec_frames:
            raise ValueError(
                "cannot checkpoint while speculation frames are open "
                "(checkpoint boundaries must execute on the committed path)"
            )
        if self._checkpoints and seqno <= next(reversed(self._checkpoints)):
            raise ValueError(f"checkpoint seqnos must increase (got {seqno})")
        new_encodings: Dict[int, bytes] = {}
        new_digests: Dict[int, bytes] = {}
        updates: List[Tuple[int, bytes, int]] = []
        for index in sorted(self._modified):
            value = self._get_obj(index)
            if self._encoding_memo.get(index) == value:
                digest_value = self._digest_memo[index]
                self.counters.add("checkpoint_hashes_avoided")
            else:
                digest_value = digest(value)
            self.counters.add("checkpoint_digests")
            new_encodings[index] = value
            new_digests[index] = digest_value
            updates.append((index, digest_value, seqno))
        self.tree.update_leaves(updates)
        # Retain the memo only for this interval's working set; cold entries
        # would otherwise pin every object encoding in memory forever.
        self._encoding_memo = new_encodings
        self._digest_memo = new_digests
        self._modified.clear()
        self._checkpoints[seqno] = _Checkpoint(seqno, self.tree.snapshot())
        self.counters.add("checkpoints_taken")
        return self.tree.root()[1]

    def discard_checkpoints_below(self, seqno: int) -> None:
        for label in [s for s in self._checkpoints if s < seqno]:
            checkpoint = self._checkpoints.pop(label)
            for index in checkpoint.cow:
                labels = self._cow_labels[index]
                labels.remove(label)
                if not labels:
                    del self._cow_labels[index]

    def checkpoint_seqnos(self) -> List[int]:
        return list(self._checkpoints)

    # -- reads at a checkpoint -----------------------------------------------------------

    def get_object_at(self, seqno: int, index: int) -> Optional[bytes]:
        """Object value as of checkpoint ``seqno``.

        The first COW copy at a checkpoint label >= ``seqno`` is the value at
        ``seqno`` (a copy in checkpoint s' >= s is the value the object held
        from s' until its first subsequent modification, and the absence of
        copies in [s, s') means it did not change there).  With no copy
        anywhere, the current value stands.  The per-object label index makes
        this a bisect probe instead of a scan over all checkpoints.
        """
        if seqno not in self._checkpoints:
            return None
        labels = self._cow_labels.get(index)
        if labels:
            position = bisect_left(labels, seqno)
            if position < len(labels):
                return self._checkpoints[labels[position]].cow[index]
        return self._get_obj(index)

    def get_leaf(self, seqno: int, index: int) -> Optional[Tuple[int, bytes]]:
        """⟨lm, digest⟩ of leaf ``index`` as of checkpoint ``seqno`` (None if
        that checkpoint is gone).  The fused-backup tier uses this to pack
        lm values into parity cells and to diff consecutive checkpoints."""
        checkpoint = self._checkpoints.get(seqno)
        if checkpoint is None:
            return None
        return checkpoint.tree.leaf(index)

    def root_digest(self, seqno: int) -> Optional[bytes]:
        checkpoint = self._checkpoints.get(seqno)
        if checkpoint is None:
            return None
        return checkpoint.tree.root()[1]

    def get_meta(self, seqno: int, level: int, index: int) -> Optional[List[Tuple[int, bytes]]]:
        checkpoint = self._checkpoints.get(seqno)
        if checkpoint is None:
            return None
        if not 0 <= level < self.tree.num_levels():
            return None
        return checkpoint.tree.children(level, index)

    def num_levels(self) -> int:
        return self.tree.num_levels()

    def current_node(self, level: int, index: int) -> Tuple[int, bytes]:
        """⟨lm, digest⟩ of a live-tree node (leaves are at the deepest level)."""
        return self.tree.node(level, index)

    def current_children(self, level: int, index: int) -> List[Tuple[int, bytes]]:
        """⟨lm, digest⟩ of every live child of (level, index), in one walk."""
        return self.tree.children(level, index)

    def set_leaf_lm(self, index: int, lm: int) -> None:
        """Overwrite a leaf's last-modified seqno, keeping its digest.

        Used by the fetching side of state transfer to adopt a verified lm
        for a leaf whose value is already correct (e.g. after a reboot reset
        every lm to zero).
        """
        _lm, digest_value = self.tree.leaf(index)
        self.tree.update_leaf(index, digest_value, lm)

    # -- installing fetched state -----------------------------------------------------------

    def install_fetched(
        self,
        objects: Dict[int, Tuple[bytes, int]],
        seqno: int,
        apply_objects: Callable[[Dict[int, bytes]], None],
    ) -> bytes:
        """Bring the state to checkpoint ``seqno`` using fetched objects.

        ``objects`` maps index -> (value, lm) as fetched and verified by the
        state-transfer protocol; ``apply_objects`` is the service's
        ``put_objs`` upcall, invoked once with the complete, consistent set
        (the paper's contract).  Client-table shards are installed by the
        manager itself.  Local checkpoints are discarded — after installation
        this replica's newest checkpoint is ``seqno`` — and the new root
        digest is returned for verification against the certificate.
        """
        service_objects: Dict[int, bytes] = {}
        for index, (value, _lm) in objects.items():
            if index < self.num_objects:
                service_objects[index] = value
            else:
                self._client_table[index - self.num_objects] = decode_client_shard(value)
        apply_objects(service_objects)
        self.tree.update_leaves(
            [(index, digest(value), lm) for index, (value, lm) in objects.items()]
        )
        # Speculation frames must be rolled back before a transfer session
        # starts (the replica does); any record left here is stale.
        self._spec_frames.clear()
        self._modified.clear()
        self._checkpoints.clear()
        self._cow_labels.clear()
        self._encoding_memo.clear()
        self._digest_memo.clear()
        self._checkpoints[seqno] = _Checkpoint(seqno, self.tree.snapshot())
        self.counters.add("state_transfer_installs")
        return self.tree.root()[1]

    # -- scrubbing: silent-corruption detection and repair ------------------------

    def scan_for_corruption(self, start: int, budget: int) -> Tuple[List[int], int]:
        """Re-digest up to ``budget`` leaves round-robin from ``start``;
        returns ``(corrupt indices, next cursor)``.

        A leaf is corrupt when the digest of its *current* concrete value no
        longer matches the digest recorded in the live tree — possible only
        through a mutation that bypassed ``modify`` (bit rot, wild writes).
        Leaves with pending modifications are skipped: their tree digest is
        legitimately stale until the next checkpoint re-digests them.
        """
        corrupt: List[int] = []
        if budget <= 0 or self.total_leaves == 0:
            return corrupt, start
        cursor = start % self.total_leaves
        scanned = min(budget, self.total_leaves)
        for _ in range(scanned):
            index = cursor
            cursor = (cursor + 1) % self.total_leaves
            if index in self._modified:
                continue
            _lm, recorded = self.tree.leaf(index)
            if digest(self._get_obj(index)) != recorded:
                corrupt.append(index)
        self.counters.add("scrub_leaves_scanned", scanned)
        if corrupt:
            self.counters.add("scrub_corrupt_leaves", len(corrupt))
        return corrupt, cursor

    def repair_objects(
        self,
        objects: Dict[int, Tuple[bytes, int]],
        apply_objects: Callable[[Dict[int, bytes]], None],
    ) -> List[int]:
        """Overwrite corrupted leaves with verified (value, lm) pairs;
        returns the indices repaired.

        Unlike ``install_fetched`` this keeps every checkpoint: the repaired
        value is exactly what the tree digest already claims the leaf holds,
        so existing snapshots stay valid and execution state is untouched.
        A leaf with a pending modification is left alone, as the scan leaves
        it alone: it was legitimately rewritten after the pair was asked for
        (the tree digest is stale until the next checkpoint), and putting
        the certified old value back would undo an executed operation.
        """
        objects = {i: pair for i, pair in objects.items() if i not in self._modified}
        service_objects: Dict[int, bytes] = {}
        for index in sorted(objects):
            value, _lm = objects[index]
            if index < self.num_objects:
                service_objects[index] = value
            else:
                self._client_table[index - self.num_objects] = decode_client_shard(value)
        if service_objects:
            apply_objects(service_objects)
        self.tree.update_leaves(
            [(index, digest(value), lm) for index, (value, lm) in sorted(objects.items())]
        )
        self.counters.add("scrub_objects_installed", len(objects))
        return sorted(objects)

    def reset_to_current(self) -> None:
        """Drop checkpoints and recompute every leaf digest from the current
        concrete state (used when a replica reconstructs after reboot)."""
        self._spec_frames.clear()
        self._checkpoints.clear()
        self._modified.clear()
        self._cow_labels.clear()
        self._encoding_memo.clear()
        self._digest_memo.clear()
        self._initialize_digests()
