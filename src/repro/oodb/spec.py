"""Common abstract specification for the replicated OODB.

Abstract state: a fixed array of ⟨object, generation⟩ pairs, like the file
service.  An abstract object is a class name plus a lexicographically sorted
attribute list; attribute values are integers, strings, byte strings, or
references to other abstract objects (by oid = ⟨index, generation⟩).  The
object at index 0 is the database root.  Abstract oids are assigned by the
deterministic lowest-free-index rule, hiding the implementation's
memory-address handles.

Operations (all XDR-encoded): NEW / FREE / SET / DEL / GET / CLASSOF / FIND.
GET, CLASSOF, and FIND are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.base.abstraction import AbstractSpec
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
    declare_op,
    fixed_opaque,
    handle,
    tuple_of,
)

# -- status codes ------------------------------------------------------------------

OODB_OK = 0
OODB_STALE = 1
OODB_NOSPC = 2
OODB_BADOP = 3
OODB_DANGLING = 4
OODB_READONLY = 5
OODB_NOATTR = 6

# -- abstract oids -------------------------------------------------------------------


def make_aoid(index: int, generation: int) -> bytes:
    return XdrEncoder().pack_u32(index).pack_u32(generation).getvalue()


def parse_aoid(aoid: bytes) -> Tuple[int, int]:
    dec = XdrDecoder(aoid)
    out = (dec.unpack_u32(), dec.unpack_u32())
    dec.done()
    return out


ROOT_AOID = make_aoid(0, 0)


@dataclass(frozen=True)
class AbstractRef:
    """An abstract reference value (oid of the target object)."""

    aoid: bytes


AbstractValue = Union[int, str, bytes, AbstractRef]

_TAG_INT = 0
_TAG_STR = 1
_TAG_BYTES = 2
_TAG_REF = 3


def pack_value(enc: XdrEncoder, value: AbstractValue) -> None:
    if isinstance(value, bool):
        raise TypeError("booleans are not an OODB value type")
    if isinstance(value, int):
        enc.pack_u32(_TAG_INT).pack_i64(value)
    elif isinstance(value, str):
        enc.pack_u32(_TAG_STR).pack_string(value)
    elif isinstance(value, bytes):
        enc.pack_u32(_TAG_BYTES).pack_opaque(value)
    elif isinstance(value, AbstractRef):
        enc.pack_u32(_TAG_REF).pack_fixed_opaque(value.aoid, 8)
    else:
        raise TypeError(f"unsupported OODB value: {value!r}")


def unpack_value(dec: XdrDecoder) -> AbstractValue:
    tag = dec.unpack_u32()
    if tag == _TAG_INT:
        return dec.unpack_i64()
    if tag == _TAG_STR:
        return dec.unpack_string()
    if tag == _TAG_BYTES:
        return dec.unpack_opaque()
    if tag == _TAG_REF:
        return AbstractRef(dec.unpack_fixed_opaque(8))
    raise ValueError(f"bad OODB value tag {tag}")


_AOID = handle(fixed_opaque(8), make_aoid)
_VALUE = Kind(lambda value: f"pack_value(enc, {value})", "unpack_value(dec)",
              (("pack_value", pack_value), ("unpack_value", unpack_value)))
_ITEMS = array(tuple_of(STRING, _VALUE))
#: A name -> value mapping, as its items in lexicographic (deterministic) order.
_ATTRS = Kind(lambda value: _ITEMS.pack(f"sorted({value}.items())"), f"dict({_ITEMS.unpack})",
              _ITEMS.names)


# -- abstract objects ------------------------------------------------------------------


@dataclass
class AbstractDBObject:
    """One entry of the abstract array (class NUL == free entry)."""

    generation: int = 0
    class_name: str = ""  # "" means the entry is free
    attrs: Dict[str, AbstractValue] = field(default_factory=dict)
    mtime: int = 0

    @property
    def is_null(self) -> bool:
        return self.class_name == ""

    def encode(self) -> bytes:
        enc = XdrEncoder()
        enc.pack_u32(self.generation)
        enc.pack_string(self.class_name)
        if self.is_null:
            return enc.getvalue()
        enc.pack_u64(self.mtime)
        items = sorted(self.attrs.items())  # lexicographic, deterministic
        enc.pack_u32(len(items))
        for name, value in items:
            enc.pack_string(name)
            pack_value(enc, value)
        return enc.getvalue()

    @staticmethod
    def decode(blob: bytes) -> "AbstractDBObject":
        dec = XdrDecoder(blob)
        obj = AbstractDBObject(generation=dec.unpack_u32(), class_name=dec.unpack_string())
        if obj.is_null:
            dec.done()
            return obj
        obj.mtime = dec.unpack_u64()
        count = dec.unpack_u32()
        for _ in range(count):
            name = dec.unpack_string()
            obj.attrs[name] = unpack_value(dec)
        dec.done()
        return obj


class OODBAbstractSpec(AbstractSpec):
    """Abstract-state definition handed to the BASE library."""

    def __init__(self, num_objects: int = 256) -> None:
        if num_objects < 1:
            raise ValueError("need at least the root object")
        self.num_objects = num_objects

    def initial_object(self, index: int) -> bytes:
        if index == 0:
            return AbstractDBObject(generation=0, class_name="Root").encode()
        return AbstractDBObject(generation=0).encode()

    def validate_object(self, index: int, data: bytes) -> bool:
        try:
            obj = AbstractDBObject.decode(data)
        except Exception:
            return False
        if index == 0 and obj.is_null:
            return False
        for value in obj.attrs.values():
            if isinstance(value, AbstractRef):
                target, _gen = parse_aoid(value.aoid)
                if not 0 <= target < self.num_objects:
                    return False
        return True


# -- operations ------------------------------------------------------------------------------

#: Command -> the op's record class, its arguments as fields in wire order.
OPS: Dict[str, type] = {}
READ_ONLY_OPS = {"GET", "CLASSOF", "FIND"}

encode_new = declare_op(OPS, "NEW", class_name=STRING)
encode_free = declare_op(OPS, "FREE", aoid=_AOID)
encode_set = declare_op(OPS, "SET", aoid=_AOID, name=STRING, value=_VALUE)
encode_del = declare_op(OPS, "DEL", aoid=_AOID, name=STRING)
encode_get = declare_op(OPS, "GET", aoid=_AOID)
encode_classof = declare_op(OPS, "CLASSOF", aoid=_AOID)
#: All live objects of a class, in deterministic (index) order.
encode_find = declare_op(OPS, "FIND", class_name=STRING)


def is_read_only_op(op: bytes) -> bool:
    try:
        return XdrDecoder(op).unpack_string() in READ_ONLY_OPS
    except ValueError:
        return False


# -- replies -----------------------------------------------------------------------------------


@codec({"status": U32, "aoid": OPAQUE, "class_name": STRING, "mtime": U64, "attrs": _ATTRS,
        "matches": array(_AOID)})
@dataclass
class OODBReply:
    status: int = OODB_OK
    aoid: bytes = b""
    class_name: str = ""
    attrs: Dict[str, AbstractValue] = field(default_factory=dict)
    mtime: int = 0
    matches: List[bytes] = field(default_factory=list)  # FIND results (aoids)

    @property
    def ok(self) -> bool:
        return self.status == OODB_OK

    def encode(self) -> bytes:
        return XdrEncoder.encode(self)

    @staticmethod
    def decode(blob: bytes) -> "OODBReply":
        return XdrDecoder(blob).unpack_last(OODBReply)
