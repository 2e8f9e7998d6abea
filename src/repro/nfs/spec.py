"""The common abstract specification of the file service (paper section 3.1).

The abstract state is a **fixed-size array of ⟨object, generation⟩ pairs**.
Each object is named by an oid — the concatenation of its array index and
its generation number; the generation is incremented every time the entry is
assigned to a new object.  There are four object types:

* **files**, whose data is a byte array;
* **directories**, whose data is a sequence of ⟨name, oid⟩ pairs ordered
  lexicographically;
* **symbolic links**, whose data is a small character string; and
* **null** objects, marking a free entry.

All non-null objects carry metadata (the NFS fattr attributes that are
visible to clients).  Entries are encoded with XDR.  The object at index 0
is the root directory of the mounted tree.

Determinism notes (the reason this spec exists): oids are assigned by a
deterministic procedure (lowest free index); directory listings returned to
clients are sorted lexicographically; timestamps come from the agreed
non-deterministic value, not from any replica's clock.  Access times are not
maintained by reads — a deliberate weakening of the NFS spec, chosen (as the
paper allows) to keep read-only operations free of state mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.base.abstraction import AbstractSpec
from repro.nfs.protocol import NFDIR, NFLNK, NFNON, NFREG
from repro.util.xdr import U32, U64, XdrDecoder, XdrEncoder, codec

OID_SIZE = 8


def make_oid(index: int, generation: int) -> bytes:
    """oid = concatenation of array index and generation number."""
    return XdrEncoder().pack_u32(index).pack_u32(generation).getvalue()


def parse_oid(oid: bytes) -> Tuple[int, int]:
    dec = XdrDecoder(oid)
    index = dec.unpack_u32()
    generation = dec.unpack_u32()
    dec.done()
    return index, generation


ROOT_OID = make_oid(0, 0)

DEFAULT_DIR_MODE = 0o755
DEFAULT_FILE_MODE = 0o644


@codec({"mode": U32, "uid": U32, "gid": U32, "mtime": U64, "ctime": U64})
@dataclass
class AbstractMeta:
    """The client-visible attributes stored in the abstract state.

    Sizes are derived from the data; ⟨fsid, fileid⟩ are concrete-state
    notions that the abstraction hides (clients see the oid as fileid).
    """

    mode: int = 0
    uid: int = 0
    gid: int = 0
    mtime: int = 0
    ctime: int = 0


@dataclass
class AbstractObject:
    """One entry of the abstract-object array, XDR-encodable."""

    ftype: int = NFNON
    generation: int = 0
    meta: AbstractMeta = field(default_factory=AbstractMeta)
    data: bytes = b""  # files
    entries: List[Tuple[str, bytes]] = field(default_factory=list)  # dirs: (name, oid)
    target: str = ""  # symlinks

    def encode(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_u32(self.ftype)
        enc.pack_u32(self.generation)
        if self.ftype == NFNON:
            return enc.getvalue()
        self.meta.pack(enc)
        if self.ftype == NFREG:
            enc.pack_opaque(self.data)
        elif self.ftype == NFDIR:
            ordered = sorted(self.entries)  # lexicographic, per the spec
            enc.pack_u32(len(ordered))
            for name, oid in ordered:
                enc.pack_string(name)
                enc.pack_fixed_opaque(oid, OID_SIZE)
        elif self.ftype == NFLNK:
            enc.pack_string(self.target)
        else:
            raise ValueError(f"bad abstract object type {self.ftype}")
        return enc.getvalue()

    @staticmethod
    def decode(blob: bytes) -> "AbstractObject":
        dec = XdrDecoder(blob)
        ftype = dec.unpack_u32()
        generation = dec.unpack_u32()
        obj = AbstractObject(ftype=ftype, generation=generation)
        if ftype == NFNON:
            dec.done()
            return obj
        obj.meta = AbstractMeta.unpack(dec)
        if ftype == NFREG:
            obj.data = dec.unpack_opaque()
        elif ftype == NFDIR:
            count = dec.unpack_u32()
            obj.entries = [
                (dec.unpack_string(), dec.unpack_fixed_opaque(OID_SIZE))
                for _ in range(count)
            ]
        elif ftype == NFLNK:
            obj.target = dec.unpack_string()
        else:
            raise ValueError(f"bad abstract object type {ftype}")
        dec.done()
        return obj

    def oid(self, index: int) -> bytes:
        return make_oid(index, self.generation)


def null_object(generation: int) -> AbstractObject:
    return AbstractObject(ftype=NFNON, generation=generation)


class NFSAbstractSpec(AbstractSpec):
    """The abstract-state definition handed to the BASE library."""

    def __init__(self, num_objects: int = 1024) -> None:
        if num_objects < 1:
            raise ValueError("need at least the root object")
        self.num_objects = num_objects

    def initial_object(self, index: int) -> bytes:
        if index == 0:
            root = AbstractObject(
                ftype=NFDIR,
                generation=0,
                meta=AbstractMeta(mode=DEFAULT_DIR_MODE),
            )
            return root.encode()
        return null_object(0).encode()

    def validate_object(self, index: int, data: bytes) -> bool:
        try:
            obj = AbstractObject.decode(data)
        except Exception:
            return False
        if index == 0 and obj.ftype != NFDIR:
            return False
        for _name, oid in obj.entries:
            child_index, _gen = parse_oid(oid)
            if not 0 <= child_index < self.num_objects:
                return False
        return True
