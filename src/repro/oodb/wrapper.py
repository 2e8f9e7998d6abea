"""Conformance wrapper for the OODB.

Hides ThorDB's nondeterminism: memory-address handles become deterministic
abstract oids (lowest free index, generation + 1); modification times come
from the agreed timestamp; attribute listings are sorted.  The conformance
rep is the index array (generation + concrete handle) plus the reverse
handle→index map; it is saved to disk for proactive recovery, with handles
re-derived after reboot from a persistent per-object label.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.base.wrapper import ConformanceWrapper
from repro.oodb.db import Ref, ThorDB, ThorError
from repro.oodb.spec import (
    AbstractDBObject,
    AbstractRef,
    AbstractValue,
    OODBAbstractSpec,
    OODBReply,
    OODB_BADOP,
    OODB_DANGLING,
    OODB_NOATTR,
    OODB_NOSPC,
    OODB_OK,
    OODB_READONLY,
    OODB_STALE,
    OPS,
    READ_ONLY_OPS,
    make_aoid,
    parse_aoid,
)
from repro.util.errors import StateTransferError
from repro.util.xdr import decode_op

_REP_KEY = "base:oodb-rep"
_LABEL_ATTR = "__base_index__"  # persistent label stored on each db object


class OODBConformanceWrapper(ConformanceWrapper):
    """Conformance wrapper C for the (single, nondeterministic) ThorDB."""

    def __init__(
        self,
        impl: ThorDB,
        spec: Optional[OODBAbstractSpec] = None,
        disk: Optional[dict] = None,
    ) -> None:
        super().__init__(spec or OODBAbstractSpec())
        self.impl = impl
        self.disk = disk if disk is not None else {}
        self.generations: List[int] = [0] * self.spec.num_objects
        self.mtimes: List[int] = [0] * self.spec.num_objects
        self.handles: List[Optional[int]] = [None] * self.spec.num_objects
        self.handle_to_index: Dict[int, int] = {}
        if _REP_KEY in self.disk:
            self._reconstruct_after_reboot()
        else:
            self._bind(0, impl.root(), 0)

    # -- rep ------------------------------------------------------------------------

    def _bind(self, index: int, handle: int, generation: int) -> None:
        self.generations[index] = generation
        self.handles[index] = handle
        self.handle_to_index[handle] = index
        # Persistent label: lets recovery recompute the abstraction function
        # even though handles changed (analogue of the ⟨fsid,fileid⟩ map).
        self.impl.set_attr(handle, _LABEL_ATTR, index)

    def _unbind(self, index: int) -> None:
        handle = self.handles[index]
        if handle is not None:
            self.handle_to_index.pop(handle, None)
        self.handles[index] = None

    def _lowest_free_index(self) -> Optional[int]:
        for index, handle in enumerate(self.handles):
            if handle is None:
                return index
        return None

    def _index_for_aoid(self, aoid: bytes) -> Optional[int]:
        try:
            index, generation = parse_aoid(aoid)
        except Exception:
            return None
        if not 0 <= index < self.spec.num_objects:
            return None
        if self.handles[index] is None or self.generations[index] != generation:
            return None
        return index

    # -- value translation ----------------------------------------------------------------

    def _to_concrete(self, value: AbstractValue) -> Tuple[Optional[object], int]:
        if isinstance(value, AbstractRef):
            index = self._index_for_aoid(value.aoid)
            if index is None:
                return None, OODB_DANGLING
            return Ref(self.handles[index]), OODB_OK
        return value, OODB_OK

    def _to_abstract(self, value: object) -> AbstractValue:
        if isinstance(value, Ref):
            index = self.handle_to_index.get(value.handle)
            if index is None:
                raise StateTransferError(f"untracked reference {value!r}")
            return AbstractRef(make_aoid(index, self.generations[index]))
        assert isinstance(value, (int, str, bytes))
        return value

    # -- execute ------------------------------------------------------------------------------

    def execute(
        self, op: bytes, client_id: str, timestamp_micros: int, read_only: bool = False
    ) -> bytes:
        # The op is decoded here, completely, before a handler's first
        # ``modify``: one that is unknown, truncated, mistyped or over-long
        # (XdrError, bad UTF-8, unknown value tag: all ValueError) changes nothing.
        try:
            command, args = decode_op(OPS, op)
        except ValueError:
            return OODBReply(status=OODB_BADOP).encode()
        if read_only and command not in READ_ONLY_OPS:
            return OODBReply(status=OODB_READONLY).encode()
        return getattr(self, f"_op_{command.lower()}")(args, timestamp_micros).encode()

    def _op_new(self, args, now: int) -> OODBReply:
        class_name = args.class_name
        if not class_name:
            return OODBReply(status=OODB_BADOP)
        index = self._lowest_free_index()
        if index is None:
            return OODBReply(status=OODB_NOSPC)
        self.modify(index)
        handle = self.impl.allocate(class_name)
        generation = self.generations[index] + 1
        self._bind(index, handle, generation)
        self.mtimes[index] = now
        return OODBReply(status=OODB_OK, aoid=make_aoid(index, generation), class_name=class_name)

    def _op_free(self, args, now: int) -> OODBReply:
        index = self._index_for_aoid(args.aoid)
        if index is None:
            return OODBReply(status=OODB_STALE)
        if index == 0:
            return OODBReply(status=OODB_BADOP)
        self.modify(index)
        self.impl.free(self.handles[index])
        self._unbind(index)
        return OODBReply(status=OODB_OK)

    def _op_set(self, args, now: int) -> OODBReply:
        index = self._index_for_aoid(args.aoid)
        if index is None:
            return OODBReply(status=OODB_STALE)
        name = args.name
        if not name or name == _LABEL_ATTR:
            return OODBReply(status=OODB_BADOP)
        concrete, status = self._to_concrete(args.value)
        if status != OODB_OK:
            return OODBReply(status=status)
        self.modify(index)
        try:
            self.impl.set_attr(self.handles[index], name, concrete)
        except ThorError:
            return OODBReply(status=OODB_DANGLING)
        self.mtimes[index] = now
        return OODBReply(status=OODB_OK)

    def _op_del(self, args, now: int) -> OODBReply:
        index = self._index_for_aoid(args.aoid)
        if index is None:
            return OODBReply(status=OODB_STALE)
        name = args.name
        if name == _LABEL_ATTR:
            return OODBReply(status=OODB_BADOP)
        if self.impl.get_attr(self.handles[index], name) is None:
            return OODBReply(status=OODB_NOATTR)
        self.modify(index)
        self.impl.del_attr(self.handles[index], name)
        self.mtimes[index] = now
        return OODBReply(status=OODB_OK)

    def _op_get(self, args, now: int) -> OODBReply:
        index = self._index_for_aoid(args.aoid)
        if index is None:
            return OODBReply(status=OODB_STALE)
        handle = self.handles[index]
        attrs = {
            name: self._to_abstract(value)
            for name, value in sorted(self.impl.attrs(handle).items())
            if name != _LABEL_ATTR
        }
        return OODBReply(
            status=OODB_OK,
            aoid=make_aoid(index, self.generations[index]),
            class_name=self.impl.class_of(handle),
            attrs=attrs,
            mtime=self.mtimes[index],
        )

    def _op_find(self, args, now: int) -> OODBReply:
        """Class extent query: deterministic index order regardless of the
        implementation's heap layout."""
        class_name = args.class_name
        matches = [
            make_aoid(index, self.generations[index])
            for index, handle in enumerate(self.handles)
            if handle is not None and self.impl.class_of(handle) == class_name
        ]
        return OODBReply(status=OODB_OK, class_name=class_name, matches=matches)

    def _op_classof(self, args, now: int) -> OODBReply:
        index = self._index_for_aoid(args.aoid)
        if index is None:
            return OODBReply(status=OODB_STALE)
        return OODBReply(
            status=OODB_OK, class_name=self.impl.class_of(self.handles[index])
        )

    # -- state conversion -----------------------------------------------------------------------

    def get_obj(self, index: int) -> bytes:
        handle = self.handles[index]
        if handle is None:
            return AbstractDBObject(generation=self.generations[index]).encode()
        if not self.impl.exists(handle):
            # Concrete corruption: expose as null so digests flag it.
            return AbstractDBObject(generation=self.generations[index]).encode()
        attrs = {
            name: self._to_abstract(value)
            for name, value in self.impl.attrs(handle).items()
            if name != _LABEL_ATTR
        }
        return AbstractDBObject(
            generation=self.generations[index],
            class_name=self.impl.class_of(handle),
            attrs=attrs,
            mtime=self.mtimes[index],
        ).encode()

    def put_objs(self, objects: Dict[int, bytes]) -> None:
        decoded = {index: AbstractDBObject.decode(blob) for index, blob in objects.items()}
        # Pass 1: existence (free / recreate / create).
        for index, obj in sorted(decoded.items()):
            handle = self.handles[index]
            if obj.is_null:
                if handle is not None and index != 0:
                    if self.impl.exists(handle):
                        self.impl.free(handle)
                    self._unbind(index)
                self.generations[index] = obj.generation
                continue
            recreate = (
                handle is None
                or not self.impl.exists(handle)
                or self.generations[index] != obj.generation
                or self.impl.class_of(handle) != obj.class_name
            )
            if recreate and index != 0:
                if handle is not None and self.impl.exists(handle):
                    self.impl.free(handle)
                self._unbind(index)
                new_handle = self.impl.allocate(obj.class_name)
                self._bind(index, new_handle, obj.generation)
            else:
                self.generations[index] = obj.generation
        # Pass 2: attributes (targets of references now all exist).
        for index, obj in sorted(decoded.items()):
            if obj.is_null:
                continue
            handle = self.handles[index]
            if handle is None:
                raise StateTransferError(f"object {index} missing after pass 1")
            for name in list(self.impl.attrs(handle)):
                if name != _LABEL_ATTR:
                    self.impl.del_attr(handle, name)
            for name, value in obj.attrs.items():
                concrete, status = self._to_concrete(value)
                if status != OODB_OK:
                    raise StateTransferError(
                        f"object {index} attr {name!r} references a missing object"
                    )
                self.impl.set_attr(handle, name, concrete)
            self.mtimes[index] = obj.mtime

    # -- proactive recovery -----------------------------------------------------------------------

    def save_for_recovery(self) -> None:
        self.disk[_REP_KEY] = {
            "generations": list(self.generations),
            "mtimes": list(self.mtimes),
            "allocated": [handle is not None for handle in self.handles],
        }

    def _reconstruct_after_reboot(self) -> None:
        saved = self.disk[_REP_KEY]
        self.generations = list(saved["generations"])
        self.mtimes = list(saved["mtimes"])
        self.handles = [None] * self.spec.num_objects
        self.handle_to_index = {}
        # Handles may have changed; the persistent per-object label recovers
        # each object's index (the OODB analogue of the fsid/fileid map).
        for handle in self.impl.handles():
            label = self.impl.get_attr(handle, _LABEL_ATTR)
            if isinstance(label, int) and 0 <= label < self.spec.num_objects:
                if saved["allocated"][label]:
                    self.handles[label] = handle
                    self.handle_to_index[handle] = label
        if self.handles[0] is None:
            self._bind(0, self.impl.root(), self.generations[0])
