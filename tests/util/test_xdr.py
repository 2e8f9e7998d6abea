"""XDR codec: round-trips, alignment, and malformed-input rejection."""

from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from repro.bft.messages import MESSAGE_TYPES
from repro.util.xdr import (
    BOOL,
    I64,
    STRING,
    U32,
    U32_MAX,
    U64,
    U64_MAX,
    XdrDecoder,
    XdrEncoder,
    XdrError,
    array,
    codec,
    optional,
    record,
    reserved,
)


class TestScalars:
    def test_u32_roundtrip(self):
        enc = XdrEncoder().pack_u32(0).pack_u32(1).pack_u32(U32_MAX)
        dec = XdrDecoder(enc.getvalue())
        assert [dec.unpack_u32() for _ in range(3)] == [0, 1, U32_MAX]
        dec.done()

    def test_u32_range_check(self):
        with pytest.raises(XdrError):
            XdrEncoder().pack_u32(-1)
        with pytest.raises(XdrError):
            XdrEncoder().pack_u32(U32_MAX + 1)

    def test_i32_roundtrip(self):
        enc = XdrEncoder().pack_i32(-(2**31)).pack_i32(2**31 - 1)
        dec = XdrDecoder(enc.getvalue())
        assert dec.unpack_i32() == -(2**31)
        assert dec.unpack_i32() == 2**31 - 1

    def test_u64_roundtrip(self):
        enc = XdrEncoder().pack_u64(U64_MAX)
        assert XdrDecoder(enc.getvalue()).unpack_u64() == U64_MAX

    def test_i64_negative(self):
        enc = XdrEncoder().pack_i64(-123456789012345)
        assert XdrDecoder(enc.getvalue()).unpack_i64() == -123456789012345

    def test_bool_roundtrip(self):
        enc = XdrEncoder().pack_bool(True).pack_bool(False)
        dec = XdrDecoder(enc.getvalue())
        assert dec.unpack_bool() is True
        assert dec.unpack_bool() is False

    def test_bool_rejects_other_values(self):
        with pytest.raises(XdrError):
            XdrDecoder(XdrEncoder().pack_u32(2).getvalue()).unpack_bool()


class TestOpaque:
    def test_opaque_is_padded_to_four_bytes(self):
        data = XdrEncoder().pack_opaque(b"abcde").getvalue()
        assert len(data) == 4 + 8  # length word + 5 bytes padded to 8

    def test_opaque_roundtrip_various_lengths(self):
        for n in range(0, 9):
            blob = bytes(range(n))
            out = XdrDecoder(XdrEncoder().pack_opaque(blob).getvalue()).unpack_opaque()
            assert out == blob

    def test_fixed_opaque_size_mismatch(self):
        with pytest.raises(XdrError):
            XdrEncoder().pack_fixed_opaque(b"abc", 4)

    def test_nonzero_padding_rejected(self):
        enc = XdrEncoder().pack_u32(1)
        corrupted = enc.getvalue() + b"a\x01\x00\x00"
        with pytest.raises(XdrError):
            XdrDecoder(corrupted).unpack_opaque()

    def test_opaque_max_length_enforced(self):
        data = XdrEncoder().pack_opaque(b"12345678").getvalue()
        with pytest.raises(XdrError):
            XdrDecoder(data).unpack_opaque(max_length=4)


class TestStringsAndArrays:
    def test_string_unicode_roundtrip(self):
        text = "héllo/wörld☃"
        assert XdrDecoder(XdrEncoder().pack_string(text).getvalue()).unpack_string() == text

    def test_array_roundtrip(self):
        items = [3, 1, 4, 1, 5]
        enc = XdrEncoder().pack_array(items, lambda e, x: e.pack_u32(x))
        out = XdrDecoder(enc.getvalue()).unpack_array(lambda d: d.unpack_u32())
        assert out == items

    def test_array_max_length(self):
        enc = XdrEncoder().pack_array([1, 2, 3], lambda e, x: e.pack_u32(x))
        with pytest.raises(XdrError):
            XdrDecoder(enc.getvalue()).unpack_array(lambda d: d.unpack_u32(), max_length=2)


class TestStreamDiscipline:
    def test_truncated_stream(self):
        with pytest.raises(XdrError):
            XdrDecoder(b"\x00\x00").unpack_u32()

    def test_done_flags_trailing_bytes(self):
        dec = XdrDecoder(XdrEncoder().pack_u32(1).pack_u32(2).getvalue())
        dec.unpack_u32()
        with pytest.raises(XdrError):
            dec.done()

    def test_empty_stream_done(self):
        XdrDecoder(b"").done()


@given(st.binary(max_size=200), st.integers(0, U64_MAX), st.text(max_size=50))
def test_mixed_roundtrip_property(blob, number, text):
    enc = XdrEncoder().pack_opaque(blob).pack_u64(number).pack_string(text)
    dec = XdrDecoder(enc.getvalue())
    assert dec.unpack_opaque() == blob
    assert dec.unpack_u64() == number
    assert dec.unpack_string() == text
    dec.done()


@given(st.lists(st.binary(max_size=30), max_size=20))
def test_opaque_array_roundtrip_property(blobs):
    enc = XdrEncoder().pack_array(blobs, lambda e, b: e.pack_opaque(b))
    out = XdrDecoder(enc.getvalue()).unpack_array(lambda d: d.unpack_opaque())
    assert out == blobs


@codec({"u32": U32, "u64": U64, "i64": I64, "flag": BOOL, "more": array(U32), "maybe": optional(I64)})
@dataclass
class Scalars:
    u32: int
    u64: int
    i64: int
    flag: bool
    more: list
    maybe: Optional[int]


def _by_method(value: Scalars) -> bytes:
    enc = XdrEncoder().pack_u32(value.u32).pack_u64(value.u64).pack_i64(value.i64)
    enc.pack_bool(value.flag).pack_array(value.more, XdrEncoder.pack_u32)
    enc.pack_bool(value.maybe is not None)
    if value.maybe is not None:
        enc.pack_i64(value.maybe)
    return enc.getvalue()


@given(
    st.builds(
        Scalars,
        st.integers(0, U32_MAX),
        st.integers(0, U64_MAX),
        st.integers(-(2**63), 2**63 - 1),
        st.booleans(),
        st.lists(st.integers(0, U32_MAX), max_size=4),
        st.none() | st.integers(-(2**63), 2**63 - 1),
    )
)
def test_declared_scalars_pack_as_the_encoder_methods_do(value):
    encoded = XdrEncoder.encode(value)
    assert encoded == _by_method(value)
    assert XdrDecoder(encoded).unpack_last(Scalars) == value


@pytest.mark.parametrize(
    "field, bad, method",
    [("u32", -1, "pack_u32"), ("u32", U32_MAX + 1, "pack_u32"), ("u64", U64_MAX + 1, "pack_u64"),
     ("i64", 2**63, "pack_i64"), ("i64", -(2**63) - 1, "pack_i64"), ("more", [U32_MAX + 1], "pack_u32")],
)
def test_declared_scalar_out_of_range_raises_the_method_error(field, bad, method):
    value = Scalars(1, 2, -3, True, [4], None)
    setattr(value, field, bad)
    with pytest.raises(XdrError) as declared:
        XdrEncoder.encode(value)
    with pytest.raises(XdrError) as direct:
        getattr(XdrEncoder(), method)(bad[0] if isinstance(bad, list) else bad)
    assert str(declared.value) == str(direct.value)


@codec({"value": U32})
@dataclass
class Inner:
    value: int


@codec({"inner": reserved(record(Inner), 0), "count": reserved(U32, U32_MAX)})
@dataclass
class WithReserved:
    inner: Inner
    count: Optional[int]


@pytest.mark.parametrize("count", [None, 0, 7])
def test_reserved_round_trips_an_item_that_names_a_record(count):
    value = WithReserved(Inner(5), count)
    encoded = XdrEncoder.encode(value)
    assert encoded[-4:] == (b"\xff" * 4 if count is None else count.to_bytes(4, "big"))
    assert XdrDecoder(encoded).unpack_last(WithReserved) == value


@pytest.mark.parametrize("tag", [(STRING, "OPEN"), (U32, 7)])
def test_a_tag_opens_every_encoding_as_its_kind_packs_it(tag):
    @codec({"value": U32}, tag)
    @dataclass
    class Tagged:
        value: int

    enc = XdrEncoder()
    opening = (enc.pack_string(tag[1]) if tag[0] is STRING else enc.pack_u32(tag[1])).getvalue()
    for value in (0, 5, U32_MAX):
        assert XdrEncoder.encode(Tagged(value)) == opening + XdrEncoder().pack_u32(value).getvalue()


def test_every_message_class_opens_with_its_wire_tag():
    for tag, cls in MESSAGE_TYPES.items():
        assert cls.wire_tag == XdrEncoder().pack_string(tag).getvalue(), cls.__name__
        assert cls.WIRE.tag == tag
