"""Random XDR streams for the codec tests: a stream is a list of
``(kind, value)`` items, one kind per ``pack_*`` / ``unpack_*`` pair."""

from hypothesis import strategies as st

from repro.util.xdr import U32_MAX, U64_MAX, XdrDecoder, XdrEncoder

_BLOB = st.binary(max_size=12)
ITEMS = st.one_of(
    st.tuples(st.just("u32"), st.integers(0, U32_MAX)),
    st.tuples(st.just("i32"), st.integers(-(2**31), 2**31 - 1)),
    st.tuples(st.just("u64"), st.integers(0, U64_MAX)),
    st.tuples(st.just("i64"), st.integers(-(2**63), 2**63 - 1)),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(st.just("opaque"), _BLOB),
    st.tuples(st.just("fixed_opaque"), _BLOB),
    st.tuples(st.just("string"), st.text(max_size=12)),
)
STREAMS = st.lists(ITEMS, max_size=10)


def pack(enc: XdrEncoder, kind: str, value) -> None:
    if kind == "fixed_opaque":
        enc.pack_fixed_opaque(value, len(value))
    else:
        getattr(enc, f"pack_{kind}")(value)


def unpack(dec: XdrDecoder, kind: str, value):
    """Read one item of ``kind``; ``value`` only sizes a fixed opaque."""
    if kind == "fixed_opaque":
        return dec.unpack_fixed_opaque(len(value))
    return getattr(dec, f"unpack_{kind}")()


def encode(items) -> bytes:
    enc = XdrEncoder()
    for kind, value in items:
        pack(enc, kind, value)
    return enc.getvalue()
