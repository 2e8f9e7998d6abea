"""The XDR encoder against the stdlib reference.

The encoder is on every message's path, so its bytes are compared with
``xdrlib.Packer`` (RFC 1014 as CPython shipped it up to 3.12) rather than
with this repository's own decoder.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.xdr import XdrEncoder
from tests.util.xdr_streams import STREAMS, pack

xdrlib = pytest.importorskip("xdrlib")  # deprecated in 3.11, gone in 3.13


@settings(max_examples=300)
@given(items=STREAMS, as_bytearray=st.booleans())
def test_encoder_matches_xdrlib(items, as_bytearray):
    reference = xdrlib.Packer()
    reference_pack = {
        "u32": reference.pack_uint,
        "i32": reference.pack_int,
        "u64": reference.pack_uhyper,
        "i64": reference.pack_hyper,
        "bool": reference.pack_bool,
        "opaque": reference.pack_opaque,
        "fixed_opaque": lambda data: reference.pack_fopaque(len(data), data),
        "string": lambda text: reference.pack_string(text.encode("utf-8")),
    }
    enc = XdrEncoder()
    buffers = []
    for kind, value in items:
        reference_pack[kind](value)
        if as_bytearray and isinstance(value, bytes):
            value = bytearray(value)
            buffers.append(value)
        pack(enc, kind, value)
    expected = reference.get_buffer()
    assert enc.getvalue() == expected
    assert len(enc) == len(expected)
    # The encoder owns what it packed: scribbling over a caller's buffer
    # afterwards must not reach the stream.
    for buffer in buffers:
        buffer[:] = b"\xff" * len(buffer)
    assert enc.getvalue() == expected
