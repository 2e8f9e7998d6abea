"""XDR (External Data Representation, RFC 1014) encoder/decoder.

The paper encodes every abstract file-system object with XDR (section 3.1),
so the abstract state bytes exchanged between replicas are XDR streams.  This
module implements the subset of XDR the reproduction needs: 32/64-bit signed
and unsigned integers, booleans, variable-length opaque data, strings, and
fixed/variable arrays, all big-endian with 4-byte alignment padding.

A record class states its format once — *field -> kind*, in wire order — and
:func:`codec` derives ``pack(self, enc)`` and ``unpack(dec)`` from it; BFT
messages, NFS calls and replies, the OODB and KV ops all go through it.
"""

from __future__ import annotations

import itertools
import struct
from contextlib import suppress
from dataclasses import make_dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")

U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF


class XdrError(ValueError):
    """Raised on malformed XDR input or out-of-range values."""


class UnknownOp(XdrError):
    """A well-formed command that no declared op answers to."""


# Zero padding to the next 4-byte boundary, indexed by ``length & 3``.
_PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")
_FALSE = _U32.pack(0)
_TRUE = _U32.pack(1)


class XdrEncoder:
    """Accumulates an XDR byte stream.

    Usage::

        enc = XdrEncoder()
        enc.pack_u32(7)
        enc.pack_string("hello")
        data = enc.getvalue()
    """

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def getvalue(self) -> bytes:
        """Return the bytes encoded so far."""
        return b"".join(self._chunks)

    @classmethod
    def encode(cls, record: object) -> bytes:
        """The bytes of one record (anything with ``pack(enc)``)."""
        enc = cls()
        record.pack(enc)  # type: ignore[attr-defined]
        return enc.getvalue()

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks)

    def pack_u32(self, value: int) -> "XdrEncoder":
        if not 0 <= value <= U32_MAX:
            raise XdrError(f"u32 out of range: {value!r}")
        self._chunks.append(_U32.pack(value))
        return self

    def pack_i32(self, value: int) -> "XdrEncoder":
        if not -(2**31) <= value < 2**31:
            raise XdrError(f"i32 out of range: {value!r}")
        self._chunks.append(_I32.pack(value))
        return self

    def pack_u64(self, value: int) -> "XdrEncoder":
        if not 0 <= value <= U64_MAX:
            raise XdrError(f"u64 out of range: {value!r}")
        self._chunks.append(_U64.pack(value))
        return self

    def pack_i64(self, value: int) -> "XdrEncoder":
        if not -(2**63) <= value < 2**63:
            raise XdrError(f"i64 out of range: {value!r}")
        self._chunks.append(_I64.pack(value))
        return self

    def pack_bool(self, value: bool) -> "XdrEncoder":
        self._chunks.append(_TRUE if value else _FALSE)
        return self

    def pack_fixed_opaque(self, data: bytes, size: int) -> "XdrEncoder":
        if len(data) != size:
            raise XdrError(f"fixed opaque: expected {size} bytes, got {len(data)}")
        # bytes() copies only what is not already immutable bytes.
        self._chunks.append(bytes(data) + _PAD[size & 3])
        return self

    def pack_opaque(self, data: bytes) -> "XdrEncoder":
        """Variable-length opaque: u32 length, bytes, zero padding to 4."""
        size = len(data)
        if size > U32_MAX:
            raise XdrError(f"u32 out of range: {size!r}")
        self._chunks.append(_U32.pack(size) + data + _PAD[size & 3])
        return self

    def pack_string(self, text: str) -> "XdrEncoder":
        data = text.encode("utf-8")
        size = len(data)
        if size > U32_MAX:
            raise XdrError(f"u32 out of range: {size!r}")
        self._chunks.append(_U32.pack(size) + data + _PAD[size & 3])
        return self

    def pack_array(self, items: Sequence[T], pack_item: Callable[["XdrEncoder", T], object]) -> "XdrEncoder":
        """Variable-length array: u32 count then each element."""
        self.pack_u32(len(items))
        for item in items:
            pack_item(self, item)
        return self


class XdrDecoder:
    """Reads values back out of an XDR byte stream.

    Raises :class:`XdrError` on truncated input; :meth:`done` checks that the
    entire stream was consumed.
    """

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._offset = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def done(self) -> None:
        """Assert the stream is fully consumed."""
        if self.remaining:
            raise XdrError(f"{self.remaining} trailing bytes in XDR stream")

    def unpack_last(self, record_type: type):
        """The record the stream ends with: ``record_type.unpack``, then :meth:`done`."""
        record = record_type.unpack(self)  # type: ignore[attr-defined]
        self.done()
        return record

    def _truncated(self, count: int) -> XdrError:
        return XdrError(
            f"truncated XDR stream: wanted {count} bytes, have {self.remaining}"
        )

    def _take(self, count: int) -> bytes:
        offset = self._offset
        end = offset + count
        if end > len(self._data):
            raise self._truncated(count)
        self._offset = end
        return self._data[offset:end]

    def unpack_u32(self) -> int:
        offset = self._offset
        if offset + 4 > len(self._data):
            raise self._truncated(4)
        self._offset = offset + 4
        return _U32.unpack_from(self._data, offset)[0]

    def unpack_i32(self) -> int:
        offset = self._offset
        if offset + 4 > len(self._data):
            raise self._truncated(4)
        self._offset = offset + 4
        return _I32.unpack_from(self._data, offset)[0]

    def unpack_u64(self) -> int:
        offset = self._offset
        if offset + 8 > len(self._data):
            raise self._truncated(8)
        self._offset = offset + 8
        return _U64.unpack_from(self._data, offset)[0]

    def unpack_i64(self) -> int:
        offset = self._offset
        if offset + 8 > len(self._data):
            raise self._truncated(8)
        self._offset = offset + 8
        return _I64.unpack_from(self._data, offset)[0]

    def unpack_bool(self) -> bool:
        value = self.unpack_u32()
        if value not in (0, 1):
            raise XdrError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    def unpack_fixed_opaque(self, size: int) -> bytes:
        data = self._take(size)
        pad = _PAD[size & 3]
        if pad and self._take(len(pad)) != pad:
            raise XdrError("nonzero XDR padding")
        return data

    def unpack_opaque(self, max_length: int = U32_MAX) -> bytes:
        length = self.unpack_u32()
        if length > max_length:
            raise XdrError(f"opaque too long: {length} > {max_length}")
        return self.unpack_fixed_opaque(length)

    def unpack_string(self, max_length: int = U32_MAX) -> str:
        return self.unpack_opaque(max_length).decode("utf-8")

    def unpack_array(self, unpack_item: Callable[["XdrDecoder"], T], max_length: int = U32_MAX) -> List[T]:
        count = self.unpack_u32()
        if count > max_length:
            raise XdrError(f"array too long: {count} > {max_length}")
        return [unpack_item(self) for _ in range(count)]


# --- declared records ---------------------------------------------------------


class Kind(NamedTuple):
    """One XDR kind a declared field can have, as source text: a class's codec
    is generated once (as ``dataclass`` generates ``__init__``) and then runs
    straight-line encoder / decoder calls, range and length checks included."""

    pack: Callable[[str], str]  #: value expression -> expression packing it on ``enc``
    unpack: Optional[str]  #: expression reading it from ``dec``; None: not in the bytes
    names: Tuple[Tuple[str, object], ...] = ()  #: what the expressions name besides enc / dec
    draw: Optional[Callable[[object], object]] = None  #: a value from a source of draws

    def drawn(self, source: object) -> object:
        """A random value: ``draw(source)``, else ``unpack`` run until it decodes
        on ``source``, which answers the ``unpack_*`` reads with drawn values."""
        while self.draw is None:
            with suppress(ValueError):  # a drawn union tag the kind does not have
                return eval(self.unpack, dict(self.names, dec=source))  # the repo's own kinds only
        return self.draw(source)


def _scalar(method: str, size: str = "") -> Kind:
    sized = size and ", " + size
    return Kind(lambda value: f"enc.pack_{method}({value}{sized})", f"dec.unpack_{method}({size})")


def _integer(method: str, packer: struct.Struct, low: int, high: int) -> Kind:
    """An integer kind packed inline: one ``Struct.pack`` appended when the
    value is in range, else ``pack_<method>``, which raises its ``XdrError``."""
    name = f"_pack_{method}"
    return Kind(
        lambda value: f"(enc._chunks.append({name}(_v)) if {low} <= (_v := {value}) <= {high}"
        f" else enc.pack_{method}(_v))",
        f"dec.unpack_{method}()",
        ((name, packer.pack),),
    )


U32 = _integer("u32", _U32, 0, U32_MAX)
U64 = _integer("u64", _U64, 0, U64_MAX)
I64 = _integer("i64", _I64, -(2**63), 2**63 - 1)
BOOL = Kind(lambda value: f"enc._chunks.append(_TRUE if {value} else _FALSE)", "dec.unpack_bool()",
            (("_TRUE", _TRUE), ("_FALSE", _FALSE)))
STRING, OPAQUE = _scalar("string"), _scalar("opaque")


def fixed_opaque(size: int) -> Kind:
    """Exactly ``size`` bytes, no length word."""
    return _scalar("fixed_opaque", str(size))


def handle(item: Kind, make: Callable[[int, int], bytes]) -> Kind:
    """An object id: the bytes of ``item``, drawn as ``make(index, generation)``."""
    return item._replace(draw=lambda source: make(*source.handle()))


def array(item: Kind) -> Kind:
    """Variable-length array: u32 count, then each element."""
    return Kind(
        lambda value: f"enc.pack_array({value}, lambda enc, item: {item.pack('item')})",
        item.unpack and f"dec.unpack_array(lambda dec: {item.unpack})",
        item.names,
        lambda source: source.unpack_array(item.drawn),
    )


def tuple_of(*items: Kind) -> Kind:
    """Fixed-length tuple: each position in order, no count."""
    unpack = [item.unpack for item in items]
    return Kind(
        lambda value: "(%s)" % ", ".join(k.pack(f"{value}[{i}]") for i, k in enumerate(items)),
        "(%s)" % ", ".join(map(str, unpack)) if all(unpack) else None,
        sum((item.names for item in items), ()),
    )


def optional(item: Kind) -> Kind:
    """XDR optional: a bool, then the value if there is one (else ``None``)."""
    return Kind(
        lambda value: f"(enc.pack_bool(False) if {value} is None"
        f" else (enc.pack_bool(True), {item.pack(value)}))",
        item.unpack and f"({item.unpack} if dec.unpack_bool() else None)",
        item.names,
    )


def reserved(item: Kind, none: int) -> Kind:
    """An integer kind whose value ``none`` is reserved to mean ``None``."""
    return Kind(
        lambda value: item.pack(f"({none} if {value} is None else {value})"),
        f"(None if (value := {item.unpack}) == {none} else value)",
        item.names,
        lambda source: None if source.unpack_bool() else item.drawn(source),
    )


_record_serial = itertools.count()


def record(cls: type) -> Kind:
    """A nested record.  The class object itself goes into the generated
    source's namespace, so two records may share a ``__name__``."""
    name = f"_record{next(_record_serial)}"
    return Kind(lambda value: f"{value}.pack(enc)", f"{name}.unpack(dec)", ((name, cls),), cls.draw)


def codec(
    fields: Dict[str, Kind],
    tag: Optional[Tuple[Kind, object]] = None,
    registry: Optional[Dict[object, type]] = None,
) -> Callable[[type], type]:
    """Class decorator: derive the codec of a record from its one declaration,
    ``fields``: *attribute expression -> kind* in wire order.

    ``cls.pack(self, enc)`` packs ``tag`` — a (kind, constant) pair that opens
    the encoding, packed once into ``cls.wire_tag``; reading it back to pick
    the class out of ``registry`` is the caller's — and then every field.
    ``cls.unpack(dec)`` reads the fields and builds ``cls(field=value, ...)``,
    ``cls.draw(source)`` from :meth:`Kind.drawn` values; both are ``None``
    where a field is derived (``"batch_digest()"``) or of a kind that is not in
    the bytes.  A tag that ``registry`` already holds for another class is a
    ``TypeError``."""

    def derive(cls: type) -> type:
        if registry is not None and registry.setdefault(tag[1], cls) is not cls:
            raise TypeError(
                f"wire tag {tag[1]!r} of {cls.__name__} is already taken by "
                f"{registry[tag[1]].__name__}: encodings must be domain-separated"
            )
        names: Dict[str, object] = {"cls": cls, "unpack": None}
        source = ["def pack(self, enc):"]
        if tag is not None:
            source.append("    enc._chunks.append(_tag)")  # a constant: packed once, below
        for attr, kind in fields.items():
            source.append(f"    {kind.pack('self.' + attr)}")
            names.update(kind.names)
        if all(attr.isidentifier() and kind.unpack for attr, kind in fields.items()):
            args = ", ".join(f"{attr}={kind.unpack}" for attr, kind in fields.items())
            source += ["@staticmethod", "def unpack(dec):", f"    return cls({args})"]
        if tag is not None:
            source += ["def pack_tag(enc):", f"    {tag[0].pack(repr(tag[1]))}"]
            names.update(tag[0].names)
        exec("\n".join(source), names)  # input: the repo's own declarations only
        cls.pack, cls.unpack = names["pack"], names["unpack"]
        if tag is not None:
            enc = XdrEncoder()
            names["pack_tag"](enc)
            #: What every encoding of the class starts with.
            cls.wire_tag = names["_tag"] = enc.getvalue()
        cls.draw = cls.unpack and staticmethod(
            lambda source: cls(**{attr: kind.drawn(source) for attr, kind in fields.items()}))
        return cls

    return derive


def declare_op(registry: Dict[str, type], command: str, **args: Kind) -> Callable[..., bytes]:
    """Declare one service op — the string ``command``, then ``args`` in wire
    order — in ``registry``; returns its encoder, ``encode_x(*arguments) -> bytes``."""
    cls = codec(args, (STRING, command), registry)(make_dataclass(command, args))
    return lambda *arguments, **named: XdrEncoder.encode(cls(*arguments, **named))


def decode_op(registry: Dict[str, type], data: bytes) -> Tuple[str, object]:
    """``(command, arguments)`` of exactly one declared op.  Anything else is a
    ``ValueError``: truncated or mistyped arguments, a string that is not UTF-8,
    bytes after the last argument, a command not in ``registry`` (:class:`UnknownOp`)."""
    dec = XdrDecoder(data)
    command = dec.unpack_string()
    if command not in registry:
        raise UnknownOp(f"unknown command {command!r}")
    return command, dec.unpack_last(registry[command])
