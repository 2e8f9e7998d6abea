"""Hierarchical state partition tree (OSDI'00 section: efficient state
transfer).

The abstract state is an array of objects; the tree is a fixed-arity Merkle
tree whose leaves are the objects.  Every node carries ⟨lm, d⟩ — the sequence
number of the checkpoint at which the node's subtree last changed, and a
digest.  Interior digests bind the children's ⟨lm, d⟩ pairs, so a fetching
replica can verify any metadata reply against the root digest it learned from
a stable-checkpoint certificate, and can skip subtrees whose lm shows they
have not changed since its own checkpoint.

lm values may be digested because they agree across correct replicas: every
correct replica takes every checkpoint, so a leaf's lm is the checkpoint at
or above the batch that last wrote it.

The tree is *persistent*: nodes are immutable tuples, updates path-copy the
O(log n) spine from the touched leaf to the root, and :meth:`snapshot` is an
O(1) grab of the current root pointer.  Old snapshots share all unmodified
subtrees with the live tree, so ``take_checkpoint`` costs
O(modified · log n) instead of the O(n) full copy the tree used to make.

Node representation: a leaf is ``(lm, digest)``; an interior node is
``(lm, digest, children)`` with ``children`` a tuple of nodes.  Interior
levels are always full width (``arity ** level`` nodes); only the leaf level
is trimmed to ``num_objects``, so right-edge interior nodes may have fewer
than ``arity`` children — or none, in which case their digest is
``combine_digests(())``.  This exactly mirrors the previous array layout, so
every digest is byte-identical to the pre-persistent implementation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.crypto.digest import EMPTY_DIGEST, combine_digests
from repro.util.stats import Counters

_Leaf = Tuple[int, bytes]


def _levels_for(num_leaves: int, arity: int) -> int:
    """Number of tree levels below the root needed to cover the leaves."""
    levels = 1
    span = arity
    while span < num_leaves:
        span *= arity
        levels += 1
    return levels


def _encode_pair(lm: int, digest_value: bytes) -> bytes:
    return lm.to_bytes(8, "big") + digest_value


def _make_interior(children: tuple) -> tuple:
    digest_value = combine_digests(
        _encode_pair(child[0], child[1]) for child in children
    )
    lm = max((child[0] for child in children), default=0)
    return (lm, digest_value, children)


class _TreeShape:
    """Navigation shared by the live tree and its snapshots."""

    arity: int
    depth: int
    num_objects: int
    _root: tuple

    def num_levels(self) -> int:
        """Levels below the root: leaves live at level ``num_levels()``."""
        return self.depth

    def nodes_at(self, level: int) -> int:
        if level < 0 or level > self.depth:
            raise IndexError(f"no level {level} in a depth-{self.depth} tree")
        if level == self.depth:
            return self.num_objects
        return self.arity ** level

    def child_range(self, level: int, index: int) -> range:
        """Indices at ``level + 1`` that are children of (level, index)."""
        if level >= self.depth:
            raise ValueError("leaves have no children")
        start = index * self.arity
        end = min(start + self.arity, self.nodes_at(level + 1))
        return range(start, end)

    def _node(self, level: int, index: int) -> tuple:
        if index < 0 or index >= self.nodes_at(level):
            raise IndexError(f"no node {index} at level {level}")
        node = self._root
        for current in range(level):
            slot = (index // self.arity ** (level - current - 1)) % self.arity
            node = node[2][slot]
        return node

    def root(self) -> Tuple[int, bytes]:
        return self._root[0], self._root[1]

    def node(self, level: int, index: int) -> Tuple[int, bytes]:
        found = self._node(level, index)
        return found[0], found[1]

    def children(self, level: int, index: int) -> List[Tuple[int, bytes]]:
        if level >= self.depth:
            raise ValueError("leaves have no children")
        parent = self._node(level, index)
        return [(child[0], child[1]) for child in parent[2]]

    def leaf(self, index: int) -> Tuple[int, bytes]:
        return self.node(self.depth, index)


class PartitionTree(_TreeShape):
    """Merkle tree over a fixed-size array of abstract-object digests.

    Level 0 is the root (one node); the deepest level holds the leaves.
    Updates path-copy and recompute the spine to the root eagerly (path
    length is O(log_arity(n)), a handful of hashes).
    """

    def __init__(
        self, num_objects: int, arity: int = 8, counters: Optional[Counters] = None
    ) -> None:
        if num_objects < 1:
            raise ValueError("need at least one object")
        if arity < 2:
            raise ValueError("arity must be >= 2")
        self.num_objects = num_objects
        self.arity = arity
        self.depth = _levels_for(num_objects, arity)
        self.counters = counters if counters is not None else Counters()
        # Build bottom-up: the leaf level trimmed to num_objects, every
        # interior level full width, childless right-edge nodes included.
        level_nodes: List[tuple] = [(0, EMPTY_DIGEST)] * num_objects
        for level in range(self.depth - 1, -1, -1):
            width = self.arity ** level
            level_nodes = [
                _make_interior(
                    tuple(level_nodes[i * self.arity : i * self.arity + self.arity])
                )
                for i in range(width)
            ]
        self._root = level_nodes[0]

    # -- writes -----------------------------------------------------------------

    def update_leaf(self, index: int, digest_value: bytes, seqno: int) -> None:
        """Set leaf ``index`` to ``digest_value``, last modified at ``seqno``,
        path-copying the spine to the root."""
        if index < 0 or index >= self.num_objects:
            raise IndexError(f"no leaf {index}")
        self._root = self._rebuild(self._root, 0, [(index, digest_value, seqno)])

    def update_leaves(self, updates: List[Tuple[int, bytes, int]]) -> None:
        """Apply many leaf updates in one pass, rebuilding each shared spine
        node once (checkpoint batching).  Later entries win on duplicate
        indices.  The resulting digests are identical to applying
        :meth:`update_leaf` per entry — interior digests are a pure function
        of the leaf vector."""
        if not updates:
            return
        deduped = {index: (index, digest_value, seqno) for index, digest_value, seqno in updates}
        for index in deduped:
            if index < 0 or index >= self.num_objects:
                raise IndexError(f"no leaf {index}")
        self._root = self._rebuild(self._root, 0, sorted(deduped.values()))

    def _rebuild(
        self, node: tuple, level: int, updates: List[Tuple[int, bytes, int]]
    ) -> tuple:
        self.counters.add("tree_nodes_copied")
        if level == self.depth:
            _index, digest_value, seqno = updates[-1]
            return (seqno, digest_value)
        span = self.arity ** (self.depth - level - 1)
        children = list(node[2])
        i = 0
        while i < len(updates):
            slot = (updates[i][0] // span) % self.arity
            j = i
            while j < len(updates) and (updates[j][0] // span) % self.arity == slot:
                j += 1
            children[slot] = self._rebuild(children[slot], level + 1, updates[i:j])
            i = j
        return _make_interior(tuple(children))

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> "TreeSnapshot":
        """O(1): the snapshot captures the current root pointer; all nodes are
        immutable and shared with the live tree until updates path-copy them
        away."""
        self.counters.add("tree_snapshots")
        return TreeSnapshot(
            arity=self.arity,
            depth=self.depth,
            num_objects=self.num_objects,
            root=self._root,
        )


class TreeSnapshot(_TreeShape):
    """Immutable view of a partition tree at a checkpoint (structure-shared
    with the live tree; nothing is copied)."""

    def __init__(self, arity: int, depth: int, num_objects: int, root: tuple) -> None:
        self.arity = arity
        self.depth = depth
        self.num_objects = num_objects
        self._root = root


def verify_children(parent_digest: bytes, children: List[Tuple[int, bytes]]) -> bool:
    """Check that a metadata reply's children hash to the parent digest."""
    return parent_digest == combine_digests(_encode_pair(lm, d) for lm, d in children)
