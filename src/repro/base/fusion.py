"""XOR parity over *abstract* object encodings (the fused-backup tier's math).

Fused state machines (Balasubramanian & Garg) replace full backup replicas
with nodes that hold *coded* combinations of several primaries' state.  BASE
makes that unusually tractable: the abstract state is an enumerable array of
variable-sized object encodings, digest-indexed by the partition tree — so a
parity block over the S shard groups' abstract arrays is well-defined without
knowing anything about the concrete implementations.

Layout.  Every abstract leaf (service object or hidden client-table shard) is
packed into a fixed-width **cell**::

    u64 lm | u32 len(value) | value | zero padding to slot_width

A shard group's **data block** is the concatenation of its ``total_leaves``
cells.  The one parity block is the XOR of the S data blocks, so the XOR of
the parity and any S-1 data blocks is the remaining one: one lost group is
repaired, two are not.

Failure behaviour is loud by design: too few blocks, width mismatches,
oversized values, and corrupt cells all raise :class:`FusionError` rather
than returning a silently wrong answer.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class FusionError(Exception):
    """Unrecoverable codec condition (too many erasures, malformed cells)."""


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise FusionError(f"xor width mismatch: {len(a)} vs {len(b)}")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def xor_blocks(blocks: Sequence[bytes], count: int) -> bytes:
    """XOR of exactly ``count`` equal-width blocks.

    With ``count`` the number S of data blocks, this is both halves of the
    code: the parity of the S data blocks, and the one data block missing
    from the parity plus the other S-1.  Fewer blocks means more erasures
    than one parity block repairs, and raises instead of returning a wrong
    block.
    """
    if len(blocks) != count:
        raise FusionError(
            f"need {count} blocks, have {len(blocks)}: one parity block "
            f"repairs exactly one erasure"
        )
    widths = sorted({len(block) for block in blocks})
    if len(widths) != 1:
        raise FusionError(f"blocks differ in width: {widths}")
    acc = 0
    for block in blocks:
        acc ^= int.from_bytes(block, "big")
    return acc.to_bytes(widths[0], "big")


# -- cell packing -------------------------------------------------------------------

_CELL_HEADER = 12  # u64 lm + u32 length


def cell_width_for(value_len: int) -> int:
    """Minimum slot width that holds a value of ``value_len`` bytes."""
    return _CELL_HEADER + value_len


def encode_cell(lm: int, value: bytes, slot_width: int) -> bytes:
    """Pack one abstract leaf into a fixed-width cell."""
    if slot_width < _CELL_HEADER:
        raise FusionError(f"slot width {slot_width} below header size")
    if len(value) > slot_width - _CELL_HEADER:
        raise FusionError(
            f"object encoding of {len(value)} bytes exceeds slot width "
            f"{slot_width} (max {slot_width - _CELL_HEADER})"
        )
    cell = lm.to_bytes(8, "big") + len(value).to_bytes(4, "big") + value
    return cell + bytes(slot_width - len(cell))


def decode_cell(cell: bytes) -> Tuple[int, bytes]:
    """Unpack a cell back to ``(lm, value)``; loud on malformed padding."""
    if len(cell) < _CELL_HEADER:
        raise FusionError("cell shorter than header")
    lm = int.from_bytes(cell[:8], "big")
    length = int.from_bytes(cell[8:12], "big")
    if _CELL_HEADER + length > len(cell):
        raise FusionError(
            f"cell claims {length} value bytes but only "
            f"{len(cell) - _CELL_HEADER} are present"
        )
    value = cell[_CELL_HEADER : _CELL_HEADER + length]
    if any(cell[_CELL_HEADER + length :]):
        raise FusionError("nonzero padding after cell value")
    return lm, value


def pack_block(leaves: Sequence[Tuple[int, bytes]], slot_width: int) -> bytes:
    """Concatenate ``(lm, value)`` leaves into one data block."""
    return b"".join(encode_cell(lm, value, slot_width) for lm, value in leaves)


def unpack_block(
    block: bytes, slot_width: int, num_leaves: int
) -> List[Tuple[int, bytes]]:
    if len(block) != slot_width * num_leaves:
        raise FusionError(
            f"block of {len(block)} bytes is not {num_leaves} x {slot_width}"
        )
    return [
        decode_cell(block[i * slot_width : (i + 1) * slot_width])
        for i in range(num_leaves)
    ]
