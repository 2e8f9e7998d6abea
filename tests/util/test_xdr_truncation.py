"""The XDR decoder on short and damaged input.

The services hand this decoder bytes from clients, so every way of cutting
a valid stream short must surface as :class:`XdrError` — never
``struct.error`` or ``IndexError`` — and every check keeps its message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.xdr import U32_MAX, XdrDecoder, XdrEncoder, XdrError
from tests.util.xdr_streams import STREAMS, encode, unpack


@settings(max_examples=300)
@given(items=STREAMS)
def test_roundtrip_consumes_the_stream(items):
    dec = XdrDecoder(encode(items))
    for kind, value in items:
        assert unpack(dec, kind, value) == value
    assert dec.remaining == 0
    dec.done()


@settings(max_examples=200)
@given(items=STREAMS)
def test_every_strict_prefix_raises_xdr_error(items):
    blob = encode(items)
    for cut in range(len(blob)):
        dec = XdrDecoder(blob[:cut])
        with pytest.raises(XdrError):
            for kind, value in items:
                unpack(dec, kind, value)


@given(
    data=st.binary(min_size=1, max_size=11).filter(lambda blob: len(blob) % 4),
    flip=st.integers(1, 255),
)
def test_flipped_pad_byte_is_rejected(data, flip):
    blob = bytearray(XdrEncoder().pack_opaque(data).getvalue())
    blob[-1] ^= flip
    with pytest.raises(XdrError, match="nonzero XDR padding"):
        XdrDecoder(bytes(blob)).unpack_opaque()
    fixed = bytearray(XdrEncoder().pack_fixed_opaque(data, len(data)).getvalue())
    fixed[len(data)] ^= flip
    with pytest.raises(XdrError, match="nonzero XDR padding"):
        XdrDecoder(bytes(fixed)).unpack_fixed_opaque(len(data))


@pytest.mark.parametrize(
    "name, width",
    [("unpack_u32", 4), ("unpack_i32", 4), ("unpack_u64", 8), ("unpack_i64", 8), ("unpack_bool", 4)],
)
def test_truncated_integer_says_what_it_wanted(name, width):
    for have in range(width):
        dec = XdrDecoder(b"\x00" * (8 + have))
        dec.unpack_u64()
        with pytest.raises(XdrError, match=f"wanted {width} bytes, have {have}"):
            getattr(dec, name)()
        assert dec.remaining == have  # a failed read consumes nothing


def test_oversized_length_word_is_a_truncation():
    dec = XdrDecoder(b"\xff\xff\xff\xff garbage")
    with pytest.raises(XdrError, match="wanted 4294967295 bytes, have 8"):
        dec.unpack_opaque()


def test_every_check_keeps_its_message():
    with pytest.raises(XdrError, match="u32 out of range"):
        XdrEncoder().pack_u32(U32_MAX + 1)
    with pytest.raises(XdrError, match="i32 out of range"):
        XdrEncoder().pack_i32(2**31)
    with pytest.raises(XdrError, match="u64 out of range"):
        XdrEncoder().pack_u64(-1)
    with pytest.raises(XdrError, match="i64 out of range"):
        XdrEncoder().pack_i64(-(2**63) - 1)
    with pytest.raises(XdrError, match="u32 out of range"):
        XdrEncoder().pack_array(range(3), XdrEncoder.pack_u32).pack_u32(-1)
    with pytest.raises(XdrError, match="fixed opaque: expected 4 bytes, got 3"):
        XdrEncoder().pack_fixed_opaque(b"abc", 4)
    with pytest.raises(XdrError, match="opaque too long: 5 > 4"):
        XdrDecoder(XdrEncoder().pack_opaque(b"12345").getvalue()).unpack_opaque(max_length=4)
    with pytest.raises(XdrError, match="array too long: 3 > 2"):
        XdrDecoder(XdrEncoder().pack_u32(3).getvalue()).unpack_array(XdrDecoder.unpack_u32, 2)
    with pytest.raises(XdrError, match="bool must be 0 or 1, got 2"):
        XdrDecoder(XdrEncoder().pack_u32(2).getvalue()).unpack_bool()
    with pytest.raises(XdrError, match="3 trailing bytes"):
        XdrDecoder(b"abc").done()
