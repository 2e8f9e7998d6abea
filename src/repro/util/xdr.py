"""XDR (External Data Representation, RFC 1014) encoder/decoder.

The paper encodes every abstract file-system object with XDR (section 3.1),
so the abstract state bytes exchanged between replicas are XDR streams.  This
module implements the subset of XDR the reproduction needs: 32/64-bit signed
and unsigned integers, booleans, variable-length opaque data, strings, and
fixed/variable arrays, all big-endian with 4-byte alignment padding.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")

U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF


class XdrError(ValueError):
    """Raised on malformed XDR input or out-of-range values."""


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
