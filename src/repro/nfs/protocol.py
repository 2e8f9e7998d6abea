"""NFS protocol structures (subset of RFC 1094, NFS version 2).

These are the *on-the-wire* types shared by every party: the client façade,
the relay, the conformance wrapper, and the file-system implementations.  In
the replicated service the file handles inside calls and replies are oids
(abstract object identifiers); when talking directly to an implementation
they are whatever opaque handle that implementation chose — the protocol
layer does not care.

Calls and replies have canonical XDR encodings because they travel through
the BFT library as request/result byte strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module  # nfs.spec, which makes oids, imports this module
from typing import Dict, List, Optional, Tuple, Type

from repro.util.xdr import (
    OPAQUE,
    STRING,
    U32,
    U64,
    Kind,
    XdrDecoder,
    XdrEncoder,
    array,
    codec,
    handle,
    optional,
    record,
    reserved,
    tuple_of,
)

# --- status codes (RFC 1094 section 2.2.6) -------------------------------------

NFS_OK = 0
NFSERR_PERM = 1
NFSERR_NOENT = 2
NFSERR_IO = 5
NFSERR_EXIST = 17
NFSERR_NOTDIR = 20
NFSERR_ISDIR = 21
NFSERR_INVAL = 22
NFSERR_FBIG = 27
NFSERR_NOSPC = 28
NFSERR_ROFS = 30
NFSERR_NAMETOOLONG = 63
NFSERR_NOTEMPTY = 66
NFSERR_STALE = 70

STATUS_NAMES = {
    NFS_OK: "NFS_OK",
    NFSERR_PERM: "NFSERR_PERM",
    NFSERR_NOENT: "NFSERR_NOENT",
    NFSERR_IO: "NFSERR_IO",
    NFSERR_EXIST: "NFSERR_EXIST",
    NFSERR_NOTDIR: "NFSERR_NOTDIR",
    NFSERR_ISDIR: "NFSERR_ISDIR",
    NFSERR_INVAL: "NFSERR_INVAL",
    NFSERR_FBIG: "NFSERR_FBIG",
    NFSERR_NOSPC: "NFSERR_NOSPC",
    NFSERR_ROFS: "NFSERR_ROFS",
    NFSERR_NAMETOOLONG: "NFSERR_NAMETOOLONG",
    NFSERR_NOTEMPTY: "NFSERR_NOTEMPTY",
    NFSERR_STALE: "NFSERR_STALE",
}

MAX_NAME_LEN = 255
MAX_DATA = 8192  # NFSv2 transfer size

# --- file types ------------------------------------------------------------------

NFNON = 0
NFREG = 1
NFDIR = 2
NFLNK = 5

TYPE_NAMES = {NFNON: "NFNON", NFREG: "NFREG", NFDIR: "NFDIR", NFLNK: "NFLNK"}


@codec({"ftype": U32, "mode": U32, "nlink": U32, "uid": U32, "gid": U32, "size": U64,
        "fsid": U64, "fileid": U64, "atime": U64, "mtime": U64, "ctime": U64})
@dataclass
class Fattr:
    """File attributes (RFC 1094 fattr, times as integer microseconds)."""

    ftype: int = NFNON
    mode: int = 0
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    size: int = 0
    fsid: int = 0
    fileid: int = 0
    atime: int = 0
    mtime: int = 0
    ctime: int = 0


# An unset field travels as all ones (RFC 1094 sattr).
_OPT32, _OPT64 = reserved(U32, 0xFFFFFFFF), reserved(U64, 0xFFFFFFFFFFFFFFFF)


@codec({"mode": _OPT32, "uid": _OPT32, "gid": _OPT32,
        "size": _OPT64, "atime": _OPT64, "mtime": _OPT64})
@dataclass
class Sattr:
    """Settable attributes; ``None`` fields are left unchanged."""

    mode: Optional[int] = None
    uid: Optional[int] = None
    gid: Optional[int] = None
    size: Optional[int] = None
    atime: Optional[int] = None
    mtime: Optional[int] = None


# --- calls -------------------------------------------------------------------------

#: Procedure number -> the one call class that declared it.
_CALL_REGISTRY: Dict[int, Type["NfsCall"]] = {}
_SATTR, _FH = record(Sattr), handle(OPAQUE, lambda *oid: import_module("repro.nfs.spec").make_oid(*oid))


@dataclass
class NfsCall:
    """Base class for protocol calls.  A subclass states its procedure number,
    its arguments (*field -> kind*, in wire order) and whether it is read-only
    once, in the class statement; the codec derives from that."""

    def __init_subclass__(cls, proc: int, args: Dict[str, Kind], read_only: bool = False) -> None:
        codec(args, (U32, proc), _CALL_REGISTRY)(cls)
        cls.is_read_only = read_only

    def encode(self) -> bytes:
        return XdrEncoder.encode(self)

    @staticmethod
    def decode(data: bytes) -> "NfsCall":
        dec = XdrDecoder(data)
        proc = dec.unpack_u32()
        cls = _CALL_REGISTRY.get(proc)
        if cls is None:
            raise ValueError(f"unknown NFS procedure {proc}")
        return dec.unpack_last(cls)


@dataclass
class GetattrCall(NfsCall, proc=1, args={"fh": _FH}, read_only=True):
    fh: bytes = b""


@dataclass
class SetattrCall(NfsCall, proc=2, args={"fh": _FH, "sattr": _SATTR}):
    fh: bytes = b""
    sattr: Sattr = field(default_factory=Sattr)


@dataclass
class LookupCall(NfsCall, proc=4, args={"dir_fh": _FH, "name": STRING}, read_only=True):
    dir_fh: bytes = b""
    name: str = ""


@dataclass
class ReadlinkCall(NfsCall, proc=5, args={"fh": _FH}, read_only=True):
    fh: bytes = b""


@dataclass
class ReadCall(NfsCall, proc=6, args={"fh": _FH, "offset": U64, "count": U32}, read_only=True):
    fh: bytes = b""
    offset: int = 0
    count: int = 0


@dataclass
class WriteCall(NfsCall, proc=8, args={"fh": _FH, "offset": U64, "data": OPAQUE}):
    fh: bytes = b""
    offset: int = 0
    data: bytes = b""


@dataclass
class CreateCall(NfsCall, proc=9, args={"dir_fh": _FH, "name": STRING, "sattr": _SATTR}):
    dir_fh: bytes = b""
    name: str = ""
    sattr: Sattr = field(default_factory=Sattr)


@dataclass
class RemoveCall(NfsCall, proc=10, args={"dir_fh": _FH, "name": STRING}):
    dir_fh: bytes = b""
    name: str = ""


@dataclass
class RenameCall(NfsCall, proc=11, args={"from_dir": _FH, "from_name": STRING,
                                         "to_dir": _FH, "to_name": STRING}):
    from_dir: bytes = b""
    from_name: str = ""
    to_dir: bytes = b""
    to_name: str = ""


@dataclass
class SymlinkCall(NfsCall, proc=13, args={"dir_fh": _FH, "name": STRING, "target": STRING,
                                          "sattr": _SATTR}):
    dir_fh: bytes = b""
    name: str = ""
    target: str = ""
    sattr: Sattr = field(default_factory=Sattr)


@dataclass
class MkdirCall(NfsCall, proc=14, args={"dir_fh": _FH, "name": STRING, "sattr": _SATTR}):
    dir_fh: bytes = b""
    name: str = ""
    sattr: Sattr = field(default_factory=Sattr)


@dataclass
class RmdirCall(NfsCall, proc=15, args={"dir_fh": _FH, "name": STRING}):
    dir_fh: bytes = b""
    name: str = ""


@dataclass
class ReaddirCall(NfsCall, proc=16, args={"fh": _FH}, read_only=True):
    fh: bytes = b""


@dataclass
class StatfsCall(NfsCall, proc=17, args={"fh": _FH}, read_only=True):
    fh: bytes = b""


# --- replies ------------------------------------------------------------------------


@codec({"status": U32, "fh": OPAQUE, "attr": optional(record(Fattr)), "data": OPAQUE,
        "target": STRING, "entries": array(tuple_of(STRING, OPAQUE))})
@dataclass
class NfsReply:
    """Uniform reply: status plus the fields the procedure fills in."""

    status: int = NFS_OK
    fh: bytes = b""
    attr: Optional[Fattr] = None
    data: bytes = b""
    target: str = ""
    entries: List[Tuple[str, bytes]] = field(default_factory=list)  # (name, fh)

    def encode(self) -> bytes:
        return XdrEncoder.encode(self)

    @staticmethod
    def decode(data: bytes) -> "NfsReply":
        return XdrDecoder(data).unpack_last(NfsReply)

    @property
    def ok(self) -> bool:
        return self.status == NFS_OK


def error_reply(status: int) -> NfsReply:
    return NfsReply(status=status)
