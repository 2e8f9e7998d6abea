"""Property tests for the fusion codec: XOR parity over fixed-width cells.

Covers: cell/block round-trips, reconstruction of every single erasure
byte-identically, loud failure on two erasures, stripe-boundary and
empty-object edge cases.
"""

import functools
import random

import pytest

from repro.base.fusion import (
    FusionError,
    cell_width_for,
    decode_cell,
    encode_cell,
    pack_block,
    unpack_block,
    xor_blocks,
    xor_bytes,
)


# -- cells --------------------------------------------------------------------------


def test_cell_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        value = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        lm = rng.randrange(0, 2**40)
        width = cell_width_for(len(value)) + rng.randrange(0, 8)
        assert decode_cell(encode_cell(lm, value, width)) == (lm, value)


def test_cell_empty_value():
    # Empty abstract objects (the genesis KV slots) are a legal cell.
    cell = encode_cell(0, b"", 16)
    assert len(cell) == 16
    assert decode_cell(cell) == (0, b"")


def test_cell_exact_stripe_boundary():
    # Value exactly filling the slot: no padding byte at all.
    value = b"x" * 20
    width = cell_width_for(len(value))
    cell = encode_cell(5, value, width)
    assert len(cell) == width
    assert decode_cell(cell) == (5, value)
    # One byte over is loud, not truncated.
    with pytest.raises(FusionError):
        encode_cell(5, value + b"y", width)


def test_cell_rejects_garbage():
    with pytest.raises(FusionError):
        decode_cell(b"\x00" * 4)  # shorter than header
    good = encode_cell(1, b"ab", 20)
    with pytest.raises(FusionError):
        decode_cell(good[:-1] + b"\x01")  # nonzero padding
    bad_len = good[:8] + (1000).to_bytes(4, "big") + good[12:]
    with pytest.raises(FusionError):
        decode_cell(bad_len)  # length field beyond the cell


def test_block_round_trip():
    leaves = [(3, b"alpha"), (0, b""), (9, b"long-ish value here")]
    width = cell_width_for(max(len(v) for _, v in leaves))
    block = pack_block(leaves, width)
    assert len(block) == width * len(leaves)
    assert unpack_block(block, width, len(leaves)) == leaves
    with pytest.raises(FusionError):
        unpack_block(block + b"\x00", width, len(leaves))


# -- the codec ----------------------------------------------------------------------


def _random_blocks(rng, count, width):
    return [bytes(rng.randrange(256) for _ in range(width)) for _ in range(count)]


def _shares(rng, num_data, width):
    """The S data blocks followed by their parity."""
    blocks = _random_blocks(rng, num_data, width)
    return blocks + [xor_blocks(blocks, num_data)]


@pytest.mark.parametrize("num_data", [2, 3, 4, 8])
def test_reconstruct_all_erasure_patterns(num_data):
    """Any one erased share (data or parity) reconstructs byte-identically."""
    shares = _shares(random.Random(num_data * 31), num_data, 48)
    for erased in range(num_data + 1):
        surviving = shares[:erased] + shares[erased + 1 :]
        assert xor_blocks(surviving, num_data) == shares[erased], (
            f"erasing share {erased} of {num_data + 1} did not round-trip"
        )


@pytest.mark.parametrize("num_data", [2, 3, 4])
def test_too_many_erasures_fails_loudly(num_data):
    """Two erasures must raise, never return a silently wrong answer."""
    shares = _shares(random.Random(99), num_data, 32)
    for first in range(num_data + 1):
        for second in range(first + 1, num_data + 1):
            surviving = [
                s for i, s in enumerate(shares) if i not in (first, second)
            ]
            with pytest.raises(FusionError):
                xor_blocks(surviving, num_data)


def test_single_parity_degenerates_consistently():
    # The parity is the plain pairwise XOR, and it restores any single loss.
    rng = random.Random(3)
    blocks = _random_blocks(rng, 4, 24)
    parity = xor_blocks(blocks, 4)
    assert parity == functools.reduce(xor_bytes, blocks)
    for lost in range(4):
        surviving = [b for i, b in enumerate(blocks) if i != lost]
        assert xor_blocks(surviving + [parity], 4) == blocks[lost]


def test_delta_update_matches_full_reencode():
    """Incremental parity maintenance == re-encoding from scratch."""
    rng = random.Random(17)
    num_data, width, slot = 4, 60, 20
    blocks = _random_blocks(rng, num_data, width)
    parity = xor_blocks(blocks, num_data)
    for _ in range(25):
        which = rng.randrange(num_data)
        offset = rng.randrange(0, width // slot) * slot
        new_cell = bytes(rng.randrange(256) for _ in range(slot))
        old = blocks[which]
        delta = xor_bytes(old[offset : offset + slot], new_cell)
        blocks[which] = old[:offset] + new_cell + old[offset + slot :]
        patched = xor_bytes(parity[offset : offset + slot], delta)
        parity = parity[:offset] + patched + parity[offset + slot :]
        assert parity == xor_blocks(blocks, num_data)


def test_width_mismatch_is_loud():
    with pytest.raises(FusionError):
        xor_blocks([b"aa", b"bbb"], 2)
    with pytest.raises(FusionError):
        xor_bytes(b"aa", b"bbb")


def test_xor_blocks_wants_exactly_count_blocks():
    """One block too many is as loud as one too few, and no blocks at all
    is never an all-zero parity."""
    blocks = _random_blocks(random.Random(5), 3, 16)
    parity = xor_blocks(blocks, 3)
    with pytest.raises(FusionError):
        xor_blocks(blocks + [parity], 3)
    with pytest.raises(FusionError):
        xor_blocks([], 0)


def test_empty_objects_stripe():
    """A whole shard of empty objects (genesis state) round-trips."""
    slot = cell_width_for(0)
    leaves = [(0, b"")] * 5
    blocks = [pack_block(leaves, slot) for _ in range(3)]
    parity = xor_blocks(blocks, 3)
    rebuilt = xor_blocks([blocks[1], blocks[2], parity], 3)
    assert rebuilt == blocks[0]
    assert unpack_block(rebuilt, slot, 5) == leaves
