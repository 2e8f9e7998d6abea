"""The file-service conformance wrapper (paper section 3.2).

Sits between the BASE library and one off-the-shelf NFS server and makes the
server implement the common abstract specification:

* translates oids (client-visible file handles) to the server's own file
  handles and back;
* assigns oids deterministically (lowest free index, generation + 1);
* replaces the server's nondeterministic timestamps with abstract timestamps
  agreed through the BFT library;
* sorts directory listings lexicographically;
* calls the library's ``modify`` upcall before each abstract-object
  mutation, and its ``reads`` upcall for each object an answer depends on
  (an attribute reply's object, a LOOKUP's directory, a READLINK's link;
  STATFS counts every object and declares none).

The **conformance rep** is an array mirroring the abstract-object array;
each entry stores the generation number, the file handle the wrapped server
assigned to the object, the abstract timestamps, and the object's current
location (parent index + name) — plus reverse maps from file handles and
from ⟨fsid, fileid⟩ pairs to indices (the latter is saved to disk for
proactive recovery, section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.base.wrapper import ConformanceWrapper
from repro.nfs.fileserver.api import NFSServer
from repro.nfs.protocol import (
    NFDIR,
    NFLNK,
    NFNON,
    NFREG,
    NFSERR_INVAL,
    NFSERR_IO,
    NFSERR_NOENT,
    NFSERR_NOSPC,
    NFSERR_STALE,
    NFS_OK,
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
    error_reply,
)
from repro.nfs.spec import (
    AbstractMeta,
    NFSAbstractSpec,
    make_oid,
    parse_oid,
)

ABSTRACT_FSID = 1
LIMBO_NAME = ".__base_limbo__"
_REP_KEY = "base:conformance-rep"


@dataclass
class RepEntry:
    """Conformance-rep slot for one abstract array index."""

    generation: int = 0
    fh: Optional[bytes] = None  # None = entry free
    mtime: int = 0
    ctime: int = 0
    parent: int = 0  # index of the directory currently holding the object
    name: str = ""  # its name there ("" for the root); LIMBO parent == -1

    @property
    def allocated(self) -> bool:
        return self.fh is not None


class NFSConformanceWrapper(ConformanceWrapper):
    """Conformance wrapper C_i for one NFS server implementation I_i."""

    def __init__(
        self,
        impl: NFSServer,
        spec: Optional[NFSAbstractSpec] = None,
        disk: Optional[dict] = None,
    ) -> None:
        super().__init__(spec or NFSAbstractSpec())
        self.impl = impl
        self.disk = disk if disk is not None else {}
        self.entries: List[RepEntry] = [RepEntry() for _ in range(self.spec.num_objects)]
        self.fh_to_index: Dict[bytes, int] = {}
        self.id_to_index: Dict[Tuple[int, int], int] = {}  # (fsid, fileid) -> index
        self._limbo_fh: Optional[bytes] = None
        #: Every entry below this index is allocated; the free-index scan starts here.
        self._free_floor = 0
        if _REP_KEY in self.disk:
            self._reconstruct_after_reboot()
        else:
            self._bind(0, self.impl.root_handle(), generation=0, parent=0, name="")

    # -- rep maintenance ------------------------------------------------------------

    def _bind(self, index: int, fh: bytes, generation: int, parent: int, name: str) -> None:
        entry = self.entries[index]
        entry.generation = generation
        entry.fh = fh
        entry.parent = parent
        entry.name = name
        self.fh_to_index[fh] = index
        attr = self.impl.getattr(fh).attr
        if attr is not None:
            self.id_to_index[(attr.fsid, attr.fileid)] = index

    def _unbind(self, index: int) -> None:
        entry = self.entries[index]
        if entry.fh is not None:
            self.fh_to_index.pop(entry.fh, None)
            stale = [k for k, v in self.id_to_index.items() if v == index]
            for key in stale:
                del self.id_to_index[key]
        entry.fh = None
        entry.name = ""
        entry.parent = 0
        self._free_floor = min(self._free_floor, index)

    def _lowest_free_index(self) -> Optional[int]:
        """Deterministic oid assignment (paper 3.1)."""
        for index in range(self._free_floor, len(self.entries)):
            if not self.entries[index].allocated:
                self._free_floor = index
                return index
        return None

    def _index_for_oid(self, oid: bytes) -> Optional[int]:
        try:
            index, generation = parse_oid(oid)
        except Exception:
            return None
        if not 0 <= index < self.spec.num_objects:
            return None
        entry = self.entries[index]
        if not entry.allocated or entry.generation != generation:
            return None
        return index

    def _abstract_fileid(self, index: int) -> int:
        return (index << 32) | self.entries[index].generation

    # -- attribute translation ----------------------------------------------------------

    def _abstract_attr(self, index: int, impl_attr: Fattr) -> Fattr:
        """Replace concrete identities and timestamps with abstract ones."""
        entry = self.entries[index]
        if impl_attr.ftype == NFDIR:
            size = self._dir_entry_count(entry.fh)
        elif impl_attr.ftype == NFLNK:
            reply = self.impl.readlink(entry.fh)
            size = len(reply.target) if reply.ok else 0
        else:
            size = impl_attr.size
        return Fattr(
            ftype=impl_attr.ftype,
            mode=impl_attr.mode,
            nlink=1,
            uid=impl_attr.uid,
            gid=impl_attr.gid,
            size=size,
            fsid=ABSTRACT_FSID,
            fileid=self._abstract_fileid(index),
            atime=entry.mtime,  # the abstract spec does not maintain atime
            mtime=entry.mtime,
            ctime=entry.ctime,
        )

    def _dir_entry_count(self, fh: bytes) -> int:
        reply = self.impl.readdir(fh)
        if not reply.ok:
            return 0
        return sum(1 for name, _fh in reply.entries if name != LIMBO_NAME)

    # -- execute (the BASE execute upcall) ---------------------------------------------------

    def execute(
        self, op: bytes, client_id: str, timestamp_micros: int, read_only: bool = False
    ) -> bytes:
        try:
            call = NfsCall.decode(op)
        except Exception:
            return error_reply(NFSERR_IO).encode()
        if read_only and not call.is_read_only:
            return error_reply(NFSERR_IO).encode()
        reply = self._dispatch(call, timestamp_micros)
        return reply.encode()

    def _dispatch(self, call: NfsCall, now: int) -> NfsReply:
        if isinstance(call, GetattrCall):
            return self._do_getattr(call)
        if isinstance(call, SetattrCall):
            return self._do_setattr(call, now)
        if isinstance(call, LookupCall):
            return self._do_lookup(call)
        if isinstance(call, ReadlinkCall):
            return self._do_readlink(call)
        if isinstance(call, ReadCall):
            return self._do_read(call)
        if isinstance(call, WriteCall):
            return self._do_write(call, now)
        if isinstance(call, (CreateCall, MkdirCall, SymlinkCall)):
            return self._do_create(call, now)
        if isinstance(call, (RemoveCall, RmdirCall)):
            return self._do_unlink(call, now)
        if isinstance(call, RenameCall):
            return self._do_rename(call, now)
        if isinstance(call, ReaddirCall):
            return self._do_readdir(call)
        if isinstance(call, StatfsCall):
            return self._do_statfs(call)
        return error_reply(NFSERR_IO)

    # each handler translates oid -> impl fh, invokes the implementation,
    # updates the rep, and translates the reply back to abstract terms.

    def _resolve(self, oid: bytes) -> Optional[int]:
        return self._index_for_oid(oid)

    def _ok_attr_reply(self, index: int, impl_reply: NfsReply, **extra) -> NfsReply:
        self.reads(index)
        attr = impl_reply.attr
        if attr is None:
            attr_reply = self.impl.getattr(self.entries[index].fh)
            attr = attr_reply.attr
        abstract_attr = self._abstract_attr(index, attr) if attr else None
        entry = self.entries[index]
        return NfsReply(
            status=NFS_OK,
            fh=make_oid(index, entry.generation),
            attr=abstract_attr,
            **extra,
        )

    def _do_getattr(self, call: GetattrCall) -> NfsReply:
        index = self._resolve(call.fh)
        if index is None:
            return error_reply(NFSERR_STALE)
        reply = self.impl.getattr(self.entries[index].fh)
        if not reply.ok:
            return error_reply(reply.status)
        return self._ok_attr_reply(index, reply)

    def _do_setattr(self, call: SetattrCall, now: int) -> NfsReply:
        index = self._resolve(call.fh)
        if index is None:
            return error_reply(NFSERR_STALE)
        entry = self.entries[index]
        self.modify(index)
        sattr = call.sattr
        reply = self.impl.setattr(entry.fh, sattr)
        if not reply.ok:
            return error_reply(reply.status)
        if sattr.mtime is not None:
            entry.mtime = sattr.mtime
        elif sattr.size is not None:
            entry.mtime = now
        entry.ctime = now
        return self._ok_attr_reply(index, reply)

    def _do_lookup(self, call: LookupCall) -> NfsReply:
        dir_index = self._resolve(call.dir_fh)
        if dir_index is None:
            return error_reply(NFSERR_STALE)
        self.reads(dir_index)
        if call.name == LIMBO_NAME and dir_index == 0:
            return error_reply(NFSERR_NOENT)
        reply = self.impl.lookup(self.entries[dir_index].fh, call.name)
        if not reply.ok:
            return error_reply(reply.status)
        child = self.fh_to_index.get(reply.fh)
        if child is None:
            return error_reply(NFSERR_IO)
        return self._ok_attr_reply(child, reply)

    def _do_readlink(self, call: ReadlinkCall) -> NfsReply:
        index = self._resolve(call.fh)
        if index is None:
            return error_reply(NFSERR_STALE)
        self.reads(index)
        reply = self.impl.readlink(self.entries[index].fh)
        if not reply.ok:
            return error_reply(reply.status)
        return NfsReply(status=NFS_OK, target=reply.target)

    def _do_read(self, call: ReadCall) -> NfsReply:
        index = self._resolve(call.fh)
        if index is None:
            return error_reply(NFSERR_STALE)
        reply = self.impl.read(self.entries[index].fh, call.offset, call.count)
        if not reply.ok:
            return error_reply(reply.status)
        return self._ok_attr_reply(index, reply, data=reply.data)

    def _do_write(self, call: WriteCall, now: int) -> NfsReply:
        index = self._resolve(call.fh)
        if index is None:
            return error_reply(NFSERR_STALE)
        entry = self.entries[index]
        self.modify(index)
        reply = self.impl.write(entry.fh, call.offset, call.data)
        if not reply.ok:
            return error_reply(reply.status)
        entry.mtime = now
        entry.ctime = now
        return self._ok_attr_reply(index, reply)

    def _do_create(self, call, now: int) -> NfsReply:
        dir_index = self._resolve(call.dir_fh)
        if dir_index is None:
            return error_reply(NFSERR_STALE)
        if call.name == LIMBO_NAME:
            return error_reply(NFSERR_IO)
        new_index = self._lowest_free_index()
        if new_index is None:
            return error_reply(NFSERR_NOSPC)
        dir_entry = self.entries[dir_index]
        self.modify(dir_index)
        self.modify(new_index)
        if isinstance(call, CreateCall):
            reply = self.impl.create(dir_entry.fh, call.name, call.sattr)
        elif isinstance(call, MkdirCall):
            reply = self.impl.mkdir(dir_entry.fh, call.name, call.sattr)
        else:
            reply = self.impl.symlink(dir_entry.fh, call.name, call.target, call.sattr)
        if not reply.ok:
            return error_reply(reply.status)
        generation = self.entries[new_index].generation + 1
        self._bind(new_index, reply.fh, generation, parent=dir_index, name=call.name)
        created = self.entries[new_index]
        created.mtime = now
        created.ctime = now
        dir_entry.mtime = now
        dir_entry.ctime = now
        return self._ok_attr_reply(new_index, reply)

    def _do_unlink(self, call, now: int) -> NfsReply:
        dir_index = self._resolve(call.dir_fh)
        if dir_index is None:
            return error_reply(NFSERR_STALE)
        if call.name == LIMBO_NAME:
            return error_reply(NFSERR_NOENT)
        dir_entry = self.entries[dir_index]
        looked_up = self.impl.lookup(dir_entry.fh, call.name)
        if not looked_up.ok:
            return error_reply(looked_up.status)
        child = self.fh_to_index.get(looked_up.fh)
        if child is None:
            return error_reply(NFSERR_IO)
        self.modify(dir_index)
        self.modify(child)
        if isinstance(call, RmdirCall):
            reply = self.impl.rmdir(dir_entry.fh, call.name)
        else:
            reply = self.impl.remove(dir_entry.fh, call.name)
        if not reply.ok:
            return error_reply(reply.status)
        self._unbind(child)
        dir_entry.mtime = now
        dir_entry.ctime = now
        return NfsReply(status=NFS_OK)

    def _do_rename(self, call: RenameCall, now: int) -> NfsReply:
        src_index = self._resolve(call.from_dir)
        dst_index = self._resolve(call.to_dir)
        if src_index is None or dst_index is None:
            return error_reply(NFSERR_STALE)
        if LIMBO_NAME in (call.from_name, call.to_name):
            return error_reply(NFSERR_IO)
        src_dir = self.entries[src_index]
        dst_dir = self.entries[dst_index]
        moving_lookup = self.impl.lookup(src_dir.fh, call.from_name)
        if not moving_lookup.ok:
            return error_reply(moving_lookup.status)
        moving = self.fh_to_index.get(moving_lookup.fh)
        # Into itself or below it: every vendor would cut it off the tree.
        ancestor = dst_index
        while ancestor > 0 and ancestor != moving:
            ancestor = self.entries[ancestor].parent
        if ancestor == moving:
            return error_reply(NFSERR_INVAL)
        overwritten: Optional[int] = None
        existing_lookup = self.impl.lookup(dst_dir.fh, call.to_name)
        if existing_lookup.ok:
            overwritten = self.fh_to_index.get(existing_lookup.fh)
        self.modify(src_index)
        self.modify(dst_index)
        if moving is not None:
            self.modify(moving)
        if overwritten is not None and overwritten != moving:
            self.modify(overwritten)
        reply = self.impl.rename(src_dir.fh, call.from_name, dst_dir.fh, call.to_name)
        if not reply.ok:
            return error_reply(reply.status)
        if overwritten is not None and overwritten != moving:
            self._unbind(overwritten)
        if moving is not None:
            self.entries[moving].parent = dst_index
            self.entries[moving].name = call.to_name
        for directory in (src_dir, dst_dir):
            directory.mtime = now
            directory.ctime = now
        return NfsReply(status=NFS_OK)

    def _do_readdir(self, call: ReaddirCall) -> NfsReply:
        index = self._resolve(call.fh)
        if index is None:
            return error_reply(NFSERR_STALE)
        reply = self.impl.readdir(self.entries[index].fh)
        if not reply.ok:
            return error_reply(reply.status)
        out: List[Tuple[str, bytes]] = []
        for name, child_fh in reply.entries:
            if name == LIMBO_NAME:
                continue
            child = self.fh_to_index.get(child_fh)
            if child is None:
                continue
            out.append((name, make_oid(child, self.entries[child].generation)))
        out.sort()  # identical replies from every replica (paper 3.2)
        return self._ok_attr_reply(index, reply, entries=out)

    def _do_statfs(self, call: StatfsCall) -> NfsReply:
        index = self._resolve(call.fh)
        if index is None:
            return error_reply(NFSERR_STALE)
        # Abstract statfs: deterministic constants derived from the spec, not
        # from any implementation's allocator.
        from repro.util.xdr import XdrEncoder

        free_entries = sum(1 for e in self.entries if not e.allocated)
        payload = (
            XdrEncoder()
            .pack_u32(8192)
            .pack_u32(512)
            .pack_u64(self.spec.num_objects)
            .pack_u64(free_entries)
            .getvalue()
        )
        return NfsReply(status=NFS_OK, data=payload)

    # -- state conversion & recovery: implemented in conversion.py -----------------------

    def get_obj(self, index: int) -> bytes:
        from repro.nfs.conversion import abstraction_function

        return abstraction_function(self, index)

    def put_objs(self, objects: Dict[int, bytes]) -> None:
        from repro.nfs.conversion import inverse_abstraction_function

        inverse_abstraction_function(self, objects)

    def save_for_recovery(self) -> None:
        from repro.nfs.recovery import save_rep

        save_rep(self)

    def _reconstruct_after_reboot(self) -> None:
        from repro.nfs.recovery import reconstruct_rep

        reconstruct_rep(self)

    # -- limbo management (used by the inverse abstraction function) ----------------------

    def limbo_fh(self) -> bytes:
        """Handle of the hidden staging directory, created on demand."""
        if self._limbo_fh is not None:
            probe = self.impl.getattr(self._limbo_fh)
            if probe.ok:
                return self._limbo_fh
        root_fh = self.entries[0].fh
        assert root_fh is not None
        looked_up = self.impl.lookup(root_fh, LIMBO_NAME)
        if looked_up.ok:
            self._limbo_fh = looked_up.fh
        else:
            made = self.impl.mkdir(root_fh, LIMBO_NAME, Sattr(mode=0o700))
            if not made.ok:
                raise RuntimeError(f"cannot create limbo dir: {made.status}")
            self._limbo_fh = made.fh
        return self._limbo_fh
