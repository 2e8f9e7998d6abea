"""NFS protocol structures: encodings, roundtrips, read-only classification."""

from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.nfs.protocol import (
    MAX_NAME_LEN,
    NFS_OK,
    NFSERR_NOENT,
    CreateCall,
    Fattr,
    GetattrCall,
    LookupCall,
    MkdirCall,
    NfsCall,
    NfsReply,
    ReadCall,
    ReaddirCall,
    ReadlinkCall,
    RemoveCall,
    RenameCall,
    RmdirCall,
    Sattr,
    SetattrCall,
    StatfsCall,
    SymlinkCall,
    WriteCall,
    _CALL_REGISTRY,
    error_reply,
)
from repro.util.xdr import OPAQUE, XdrDecoder, XdrEncoder

#: Every call class there is, in procedure order.
CALL_CLASSES = [cls for _proc, cls in sorted(_CALL_REGISTRY.items())]

FH = bytes.fromhex("0000000300000002")
DIR = bytes.fromhex("0000000000000000")
FATTR = Fattr(ftype=1, mode=0o644, nlink=2, uid=7, gid=8, size=123,
              fsid=9, fileid=2**40, atime=11, mtime=12, ctime=13)

#: One instance of every call and the bytes it has always had.  Entries are
#: never edited: a changed hex string is a changed wire format.
GOLDEN_CALLS = [
    (GetattrCall(fh=FH),
     "00000001000000080000000300000002"),
    (SetattrCall(fh=FH, sattr=Sattr(mode=0o640, size=0, mtime=1_000_001)),
     "00000002000000080000000300000002000001a0ffffffffffffffff0000000000000000"
     "ffffffffffffffff00000000000f4241"),
    (LookupCall(dir_fh=DIR, name="file.txt"),
     "000000040000000800000000000000000000000866696c652e747874"),
    (ReadlinkCall(fh=FH),
     "00000005000000080000000300000002"),
    (ReadCall(fh=FH, offset=4096, count=512),
     "00000006000000080000000300000002000000000000100000000200"),
    (WriteCall(fh=FH, offset=2**33, data=b"\x01\x02\x03"),
     "0000000800000008000000030000000200000002000000000000000301020300"),
    (CreateCall(dir_fh=DIR, name="new", sattr=Sattr(mode=0o644, uid=7, gid=8)),
     "00000009000000080000000000000000000000036e657700000001a40000000700000008"
     "ffffffffffffffffffffffffffffffffffffffffffffffff"),
    (RemoveCall(dir_fh=DIR, name="gone"),
     "0000000a00000008000000000000000000000004676f6e65"),
    (RenameCall(from_dir=DIR, from_name="x", to_dir=FH, to_name="yy"),
     "0000000b0000000800000000000000000000000178000000"
     "0000000800000003000000020000000279790000"),
    (SymlinkCall(dir_fh=DIR, name="l", target="/t/u", sattr=Sattr()),
     "0000000d000000080000000000000000000000016c000000000000042f742f75"
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
    (MkdirCall(dir_fh=DIR, name="sub", sattr=Sattr(mode=0o755, atime=5)),
     "0000000e0000000800000000000000000000000373756200000001edffffffffffffffff"
     "ffffffffffffffff0000000000000005ffffffffffffffff"),
    (RmdirCall(dir_fh=DIR, name="sub"),
     "0000000f0000000800000000000000000000000373756200"),
    (ReaddirCall(fh=DIR),
     "00000010000000080000000000000000"),
    (StatfsCall(fh=DIR),
     "00000011000000080000000000000000"),
]

GOLDEN_REPLIES = [
    (NfsReply(),
     "000000000000000000000000000000000000000000000000"),
    (error_reply(NFSERR_NOENT),
     "000000020000000000000000000000000000000000000000"),
    (NfsReply(status=NFS_OK, fh=FH, attr=FATTR, data=b"payload", target="/link/target",
              entries=[("a", FH), ("bcd", DIR)]),
     "0000000000000008000000030000000200000001"
     "00000001000001a4000000020000000700000008000000000000007b0000000000000009"
     "0000010000000000000000000000000b000000000000000c000000000000000d"
     "000000077061796c6f6164000000000c2f6c696e6b2f746172676574"
     "000000020000000161000000000000080000000300000002"
     "0000000362636400000000080000000000000000"),
]


def packed(record):
    enc = XdrEncoder()
    record.pack(enc)
    return enc.getvalue()


class TestFattr:
    def test_roundtrip(self):
        attr = Fattr(ftype=1, mode=0o644, nlink=1, uid=7, gid=8, size=123,
                     fsid=9, fileid=10, atime=11, mtime=12, ctime=13)
        enc = XdrEncoder()
        attr.pack(enc)
        assert Fattr.unpack(XdrDecoder(enc.getvalue())) == attr

    def test_bytes_match_the_parent_commit(self):
        assert packed(FATTR).hex() == (
            "00000001000001a4000000020000000700000008000000000000007b0000000000000009"
            "0000010000000000000000000000000b000000000000000c000000000000000d"
        )
        assert Fattr.unpack(XdrDecoder(packed(FATTR))) == FATTR


class TestSattr:
    def test_roundtrip_all_set(self):
        sattr = Sattr(mode=0o600, uid=1, gid=2, size=3, atime=4, mtime=5)
        enc = XdrEncoder()
        sattr.pack(enc)
        assert Sattr.unpack(XdrDecoder(enc.getvalue())) == sattr

    def test_roundtrip_none_fields(self):
        sattr = Sattr(size=100)
        enc = XdrEncoder()
        sattr.pack(enc)
        out = Sattr.unpack(XdrDecoder(enc.getvalue()))
        assert out.size == 100
        assert out.mode is None and out.mtime is None

    def test_bytes_match_the_parent_commit(self):
        """An unset field travels as all ones, a set one as itself (0 included)."""
        sattr = Sattr(mode=0o640, size=0, mtime=1_000_001)
        assert packed(sattr).hex() == (
            "000001a0ffffffffffffffff0000000000000000ffffffffffffffff00000000000f4241"
        )
        assert Sattr.unpack(XdrDecoder(packed(sattr))) == sattr


class TestCalls:
    @pytest.mark.parametrize("cls", CALL_CLASSES, ids=lambda cls: cls.__name__)
    def test_roundtrip(self, cls):
        """Every registered call class: a fifteenth fails here until
        ``GOLDEN_CALLS`` has an instance of it."""
        cases = [call for call, _hex in GOLDEN_CALLS if type(call) is cls]
        assert cases, f"no instance of {cls.__name__} in GOLDEN_CALLS"
        for call in cases:
            assert NfsCall.decode(call.encode()) == call

    def test_bytes_match_the_parent_commit(self):
        for call, golden in GOLDEN_CALLS:
            assert call.encode().hex() == golden, call
            assert NfsCall.decode(bytes.fromhex(golden)) == call

    def test_unknown_proc_rejected(self):
        blob = XdrEncoder().pack_u32(9999).getvalue()
        with pytest.raises(ValueError):
            NfsCall.decode(blob)

    def test_a_procedure_number_already_taken_cannot_be_declared_again(self):
        """As a wire tag for a ``Message``: the parent's ``_register`` silently
        replaced the class every decoder of procedure 1 would build."""
        with pytest.raises(TypeError, match="1 of Impostor is already taken by GetattrCall"):

            @dataclass
            class Impostor(NfsCall, proc=1, args={"fh": OPAQUE}):
                fh: bytes = b""

        assert _CALL_REGISTRY[1] is GetattrCall
        assert NfsCall.decode(GetattrCall(fh=FH).encode()) == GetattrCall(fh=FH)

    def test_a_call_class_without_its_declaration_cannot_be_created(self):
        for declaration in ({}, {"proc": 99}, {"args": {"fh": OPAQUE}}):
            with pytest.raises(TypeError):

                @dataclass
                class Undeclared(NfsCall, **declaration):
                    fh: bytes = b""

        assert 99 not in _CALL_REGISTRY

    def test_read_only_classification(self):
        assert GetattrCall(fh=b"x").is_read_only
        assert ReadCall(fh=b"x").is_read_only
        assert ReaddirCall(fh=b"x").is_read_only
        assert LookupCall(dir_fh=b"x", name="n").is_read_only
        assert not WriteCall(fh=b"x").is_read_only
        assert not RemoveCall(dir_fh=b"x", name="n").is_read_only
        assert not SetattrCall(fh=b"x").is_read_only


class TestReply:
    def test_roundtrip_full(self):
        reply = NfsReply(
            status=NFS_OK,
            fh=b"handle",
            attr=Fattr(ftype=2, fileid=42),
            data=b"payload",
            target="/link/target",
            entries=[("a", b"h1"), ("b", b"h2")],
        )
        assert NfsReply.decode(reply.encode()) == reply

    def test_bytes_match_the_parent_commit(self):
        for reply, golden in GOLDEN_REPLIES:
            assert reply.encode().hex() == golden, reply
            assert NfsReply.decode(bytes.fromhex(golden)) == reply

    def test_error_reply(self):
        reply = error_reply(NFSERR_NOENT)
        out = NfsReply.decode(reply.encode())
        assert out.status == NFSERR_NOENT
        assert not out.ok


@given(st.binary(max_size=40), st.integers(0, 2**40), st.binary(max_size=100))
def test_write_call_roundtrip_property(fh, offset, data):
    call = WriteCall(fh=fh, offset=offset, data=data)
    assert NfsCall.decode(call.encode()) == call
