"""Decoder robustness: untrusted bytes must raise cleanly, never hang or
crash the process (clients can send arbitrary operation payloads)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nfs.protocol import NfsCall, NfsReply
from repro.nfs.spec import AbstractObject
from repro.oodb.spec import AbstractDBObject, OODBReply
from repro.util.xdr import XdrError


@settings(max_examples=200)
@given(blob=st.binary(max_size=200))
def test_nfs_call_decode_never_crashes(blob):
    try:
        NfsCall.decode(blob)
    except (XdrError, ValueError):
        pass  # clean rejection


@settings(max_examples=200)
@given(blob=st.binary(max_size=200))
def test_nfs_reply_decode_never_crashes(blob):
    try:
        NfsReply.decode(blob)
    except (XdrError, ValueError):
        pass


@settings(max_examples=200)
@given(blob=st.binary(max_size=200))
def test_abstract_object_decode_never_crashes(blob):
    try:
        AbstractObject.decode(blob)
    except (XdrError, ValueError):
        pass


@settings(max_examples=200)
@given(blob=st.binary(max_size=200))
def test_oodb_object_decode_never_crashes(blob):
    try:
        AbstractDBObject.decode(blob)
    except (XdrError, ValueError):
        pass


@settings(max_examples=100)
@given(blob=st.binary(max_size=200))
def test_oodb_reply_decode_never_crashes(blob):
    try:
        OODBReply.decode(blob)
    except (XdrError, ValueError):
        pass


def test_wrapper_rejects_garbage_ops():
    """A malicious client's garbage op gets an error reply, not a replica
    crash."""
    from repro.nfs.fileserver import MemFS
    from repro.nfs.spec import NFSAbstractSpec
    from repro.nfs.wrapper import NFSConformanceWrapper
    from repro.nfs.protocol import NFSERR_IO

    wrapper = NFSConformanceWrapper(MemFS(disk={}), NFSAbstractSpec(8), disk={})
    for garbage in (b"", b"\xff" * 40, b"\x00\x00\x00\x63" + b"junk"):
        reply = NfsReply.decode(wrapper.execute(garbage, "C0", 0))
        assert reply.status == NFSERR_IO


def test_oodb_wrapper_rejects_garbage_ops():
    from repro.oodb.db import ThorDB
    from repro.oodb.spec import OODBAbstractSpec, OODB_BADOP
    from repro.oodb.wrapper import OODBConformanceWrapper

    wrapper = OODBConformanceWrapper(ThorDB(disk={}), OODBAbstractSpec(8), disk={})
    for garbage in (b"", b"\xff" * 16):
        reply = OODBReply.decode(wrapper.execute(garbage, "C0", 0))
        assert reply.status == OODB_BADOP


def test_truncated_valid_prefix_rejected():
    """For every registered call class, so a fifteenth is covered without an
    edit here: no strict prefix of a valid encoding decodes, and neither does
    the encoding with 1-4 bytes after its last argument."""
    from tests.nfs.test_protocol import CALL_CLASSES, GOLDEN_CALLS

    for cls in CALL_CLASSES:
        blobs = [call.encode() for call, _hex in GOLDEN_CALLS if type(call) is cls]
        assert blobs, f"no instance of {cls.__name__} in GOLDEN_CALLS"
        for blob in blobs:
            damaged = [blob[:cut] for cut in range(len(blob))]
            damaged += [blob + b"\x00" * extra for extra in (1, 2, 3, 4)]
            damaged += [blob + b"\x00" * (extra - 1) + b"\x07" for extra in (1, 2, 3, 4)]
            for bad in damaged:
                with pytest.raises(ValueError):  # XdrError is one
                    NfsCall.decode(bad)
