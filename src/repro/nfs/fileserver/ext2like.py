"""Ext2FS: a block/inode file server ("vendor B").

Concrete representation: a fixed inode table with first-free allocation and
**inode reuse** (generation numbers bump on reuse, as in real ext2), file
data in 512-byte blocks allocated first-fit (each allocator a high-water
mark plus a min-heap of what was freed below it), directories as
insertion-ordered entry lists.  readdir returns **insertion order**;
timestamps have **one-second granularity**; handles embed
⟨fsid, inode, generation⟩.

The deliberate contrasts with the other vendors — coarser timestamps, inode
reuse, unsorted readdir, block-granular sizes — are exactly the concrete
differences the conformance wrapper has to hide.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Optional, Tuple

from repro.nfs.fileserver.api import Clock, NFSServer, name_error
from repro.nfs.protocol import (
    NFDIR,
    NFLNK,
    NFREG,
    NFSERR_EXIST,
    NFSERR_IO,
    NFSERR_ISDIR,
    NFSERR_NOENT,
    NFSERR_NOSPC,
    NFSERR_NOTDIR,
    NFSERR_NOTEMPTY,
    NFSERR_STALE,
    NFS_OK,
    Fattr,
    NfsReply,
    Sattr,
    error_reply,
)
from repro.util.errors import FaultInjected
from repro.util.xdr import XdrDecoder, XdrEncoder

_SB = "ext2:superblock"
_INODES = "ext2:inodes"
_BLOCKS = "ext2:blocks"

BLOCK_SIZE = 512


def _pack_handle(fsid: int, ino: int, generation: int) -> bytes:
    return (
        XdrEncoder()
        .pack_string("EXT2")
        .pack_u64(fsid)
        .pack_u32(ino)
        .pack_u32(generation)
        .getvalue()
    )


class Ext2FS(NFSServer):
    """Block/inode file server with inode reuse and 1-second timestamps."""

    def __init__(
        self,
        disk: Optional[dict] = None,
        clock: Optional[Clock] = None,
        seed: int = 0,
        clock_skew: float = 0.0,
        aging_threshold: Optional[int] = None,
        num_inodes: int = 4096,
        num_blocks: int = 65536,
    ) -> None:
        self.disk = disk if disk is not None else {}
        self._clock = clock or (lambda: 0.0)
        self._skew = clock_skew
        self._rng = random.Random(seed)
        self._aging_threshold = aging_threshold
        self._leaked = 0  # in-core; cleared on reboot

        if _SB not in self.disk:
            self.disk[_SB] = {
                "fsid": self._rng.randrange(1, 2**31),
                "num_inodes": num_inodes,
                "num_blocks": num_blocks,
                # Free inodes are [inode_high_water, num_inodes) plus the freed
                # ones below it, and free blocks likewise, so the lowest free
                # one of each is one heap read.
                "inode_high_water": 0,
                "freed_inodes": [],
                "high_water": 0,
                "freed_blocks": [],
            }
            self.disk[_INODES] = {}
            self.disk[_BLOCKS] = {}
            self._make_inode(NFDIR)  # ino 0 becomes the root
        self.fsid = self.disk[_SB]["fsid"]

    # -- low-level allocation -------------------------------------------------------

    def _inodes(self) -> Dict[int, dict]:
        return self.disk[_INODES]

    def _blocks(self) -> Dict[int, bytes]:
        return self.disk[_BLOCKS]

    def _now(self) -> int:
        # One-second granularity, expressed in microseconds.
        return int(self._clock() + self._skew) * 1_000_000

    def _leak(self, amount: int) -> None:
        self._leaked += amount
        if self._aging_threshold is not None and self._leaked > self._aging_threshold:
            raise FaultInjected(f"Ext2FS aged out ({self._leaked} bytes leaked)")

    def _make_inode(self, ftype: int) -> int:
        """First-free inode allocation with generation bump on reuse: the
        lowest freed inode, else the high-water mark."""
        table = self._inodes()
        sb = self.disk[_SB]
        if sb["freed_inodes"]:
            ino = heapq.heappop(sb["freed_inodes"])
        elif sb["inode_high_water"] < sb["num_inodes"]:
            ino = sb["inode_high_water"]
            sb["inode_high_water"] += 1
        else:
            raise MemoryError("inode table full")
        previous = table.get(ino)
        generation = (previous["generation"] + 1) if previous else 1
        now = self._now()
        table[ino] = {
            "free": False,
            "generation": generation,
            "type": ftype,
            "mode": 0o755 if ftype == NFDIR else 0o644,
            "uid": 0,
            "gid": 0,
            "size": 0,
            "blocks": [],
            "entries": [],  # directories: insertion-ordered (name, ino)
            "target": "",
            "atime": now,
            "mtime": now,
            "ctime": now,
        }
        return ino

    def _free_inode(self, ino: int) -> None:
        inode = self._inodes()[ino]
        self._release_blocks(inode)
        inode["entries"] = []
        inode["free"] = True
        heapq.heappush(self.disk[_SB]["freed_inodes"], ino)

    def _release_blocks(self, inode: dict) -> None:
        for block in inode["blocks"]:
            self._blocks().pop(block, None)
            heapq.heappush(self.disk[_SB]["freed_blocks"], block)
        inode["blocks"] = []

    def _alloc_block(self) -> Optional[int]:
        """First-fit: the lowest freed block, else the high-water mark."""
        sb = self.disk[_SB]
        if sb["freed_blocks"]:
            return heapq.heappop(sb["freed_blocks"])
        if sb["high_water"] == sb["num_blocks"]:
            return None
        sb["high_water"] += 1
        return sb["high_water"] - 1

    # -- file data as blocks ----------------------------------------------------------

    def _read_data(self, inode: dict) -> bytes:
        blocks = self._blocks()
        raw = b"".join(blocks.get(b, b"\x00" * BLOCK_SIZE) for b in inode["blocks"])
        return raw[: inode["size"]]

    def _write_data(self, inode: dict, data: bytes) -> bool:
        self._release_blocks(inode)
        blocks = self._blocks()
        for start in range(0, len(data), BLOCK_SIZE):
            block = self._alloc_block()
            if block is None:
                inode["size"] = 0
                return False
            blocks[block] = data[start : start + BLOCK_SIZE]
            inode["blocks"].append(block)
        inode["size"] = len(data)
        return True

    # -- handles -------------------------------------------------------------------------

    def _resolve(self, fh: bytes) -> Optional[int]:
        try:
            dec = XdrDecoder(fh)
            tag = dec.unpack_string()
            fsid = dec.unpack_u64()
            ino = dec.unpack_u32()
            generation = dec.unpack_u32()
            dec.done()
        except Exception:
            return None
        if tag != "EXT2" or fsid != self.fsid:
            return None
        inode = self._inodes().get(ino)
        if inode is None or inode.get("free") or inode["generation"] != generation:
            return None
        return ino

    def _handle(self, ino: int) -> bytes:
        return _pack_handle(self.fsid, ino, self._inodes()[ino]["generation"])

    def _attr(self, ino: int) -> Fattr:
        inode = self._inodes()[ino]
        if inode["type"] == NFREG:
            size = inode["size"]
        elif inode["type"] == NFDIR:
            size = max(BLOCK_SIZE, len(inode["entries"]) * 32)  # block-ish dir size
        else:
            size = len(inode["target"])
        return Fattr(
            ftype=inode["type"],
            mode=inode["mode"],
            nlink=1,
            uid=inode["uid"],
            gid=inode["gid"],
            size=size,
            fsid=self.fsid,
            fileid=ino,
            atime=inode["atime"],
            mtime=inode["mtime"],
            ctime=inode["ctime"],
        )

    def _reply(self, ino: int, **extra) -> NfsReply:
        return NfsReply(status=NFS_OK, fh=self._handle(ino), attr=self._attr(ino), **extra)

    def _dir_find(self, inode: dict, name: str) -> Optional[int]:
        for entry_name, child in inode["entries"]:
            if entry_name == name:
                return child
        return None

    def _apply_sattr(self, ino: int, sattr: Sattr) -> bool:
        inode = self._inodes()[ino]
        if sattr.mode is not None:
            inode["mode"] = sattr.mode
        if sattr.uid is not None:
            inode["uid"] = sattr.uid
        if sattr.gid is not None:
            inode["gid"] = sattr.gid
        if sattr.size is not None and inode["type"] == NFREG:
            data = self._read_data(inode)
            if sattr.size <= len(data):
                data = data[: sattr.size]
            else:
                data = data + b"\x00" * (sattr.size - len(data))
            if not self._write_data(inode, data):
                return False
        if sattr.atime is not None:
            inode["atime"] = sattr.atime
        if sattr.mtime is not None:
            inode["mtime"] = sattr.mtime
        inode["ctime"] = self._now()
        return True

    # -- protocol --------------------------------------------------------------------------

    def root_handle(self) -> bytes:
        return self._handle(0)

    def getattr(self, fh: bytes) -> NfsReply:
        ino = self._resolve(fh)
        if ino is None:
            return error_reply(NFSERR_STALE)
        return self._reply(ino)

    def setattr(self, fh: bytes, sattr: Sattr) -> NfsReply:
        ino = self._resolve(fh)
        if ino is None:
            return error_reply(NFSERR_STALE)
        inode = self._inodes()[ino]
        if sattr.size is not None and inode["type"] == NFDIR:
            return error_reply(NFSERR_ISDIR)
        self._leak(24)
        if not self._apply_sattr(ino, sattr):
            return error_reply(NFSERR_NOSPC)
        return self._reply(ino)

    def lookup(self, dir_fh: bytes, name: str) -> NfsReply:
        dir_ino = self._resolve(dir_fh)
        if dir_ino is None:
            return error_reply(NFSERR_STALE)
        inode = self._inodes()[dir_ino]
        if inode["type"] != NFDIR:
            return error_reply(NFSERR_NOTDIR)
        child = self._dir_find(inode, name)
        if child is None:
            return error_reply(NFSERR_NOENT)
        self._leak(8)
        return self._reply(child)

    def readlink(self, fh: bytes) -> NfsReply:
        ino = self._resolve(fh)
        if ino is None:
            return error_reply(NFSERR_STALE)
        inode = self._inodes()[ino]
        if inode["type"] != NFLNK:
            return error_reply(NFSERR_IO)
        return NfsReply(status=NFS_OK, target=inode["target"])

    def read(self, fh: bytes, offset: int, count: int) -> NfsReply:
        ino = self._resolve(fh)
        if ino is None:
            return error_reply(NFSERR_STALE)
        inode = self._inodes()[ino]
        if inode["type"] == NFDIR:
            return error_reply(NFSERR_ISDIR)
        if inode["type"] != NFREG:
            return error_reply(NFSERR_IO)
        data = self._read_data(inode)[offset : offset + count]
        inode["atime"] = self._now()
        return self._reply(ino, data=data)

    def write(self, fh: bytes, offset: int, data: bytes) -> NfsReply:
        ino = self._resolve(fh)
        if ino is None:
            return error_reply(NFSERR_STALE)
        inode = self._inodes()[ino]
        if inode["type"] == NFDIR:
            return error_reply(NFSERR_ISDIR)
        if inode["type"] != NFREG:
            return error_reply(NFSERR_IO)
        self._leak(len(data) // 16 + 8)
        current = self._read_data(inode)
        if offset > len(current):
            current = current + b"\x00" * (offset - len(current))
        merged = current[:offset] + data + current[offset + len(data) :]
        if not self._write_data(inode, merged):
            return error_reply(NFSERR_NOSPC)
        now = self._now()
        inode["mtime"] = now
        inode["ctime"] = now
        return self._reply(ino)

    def _create_common(self, dir_fh: bytes, name: str, ftype: int) -> Tuple[int, Optional[NfsReply]]:
        dir_ino = self._resolve(dir_fh)
        if dir_ino is None:
            return 0, error_reply(NFSERR_STALE)
        inode = self._inodes()[dir_ino]
        if inode["type"] != NFDIR:
            return 0, error_reply(NFSERR_NOTDIR)
        bad = name_error(name)
        if bad is not None:
            return 0, error_reply(bad)
        if self._dir_find(inode, name) is not None:
            return 0, error_reply(NFSERR_EXIST)
        self._leak(48)
        try:
            child = self._make_inode(ftype)
        except MemoryError:
            return 0, error_reply(NFSERR_NOSPC)
        inode["entries"].append((name, child))  # insertion order
        now = self._now()
        inode["mtime"] = now
        inode["ctime"] = now
        return child, None

    def create(self, dir_fh: bytes, name: str, sattr: Sattr) -> NfsReply:
        child, err = self._create_common(dir_fh, name, NFREG)
        if err is not None:
            return err
        self._apply_sattr(child, sattr)
        return self._reply(child)

    def mkdir(self, dir_fh: bytes, name: str, sattr: Sattr) -> NfsReply:
        child, err = self._create_common(dir_fh, name, NFDIR)
        if err is not None:
            return err
        self._apply_sattr(child, sattr)
        return self._reply(child)

    def symlink(self, dir_fh: bytes, name: str, target: str, sattr: Sattr) -> NfsReply:
        child, err = self._create_common(dir_fh, name, NFLNK)
        if err is not None:
            return err
        self._inodes()[child]["target"] = target
        self._apply_sattr(child, sattr)
        return self._reply(child)

    def remove(self, dir_fh: bytes, name: str) -> NfsReply:
        return self._unlink(dir_fh, name, want_dir=False)

    def rmdir(self, dir_fh: bytes, name: str) -> NfsReply:
        return self._unlink(dir_fh, name, want_dir=True)

    def _unlink(self, dir_fh: bytes, name: str, want_dir: bool) -> NfsReply:
        dir_ino = self._resolve(dir_fh)
        if dir_ino is None:
            return error_reply(NFSERR_STALE)
        inode = self._inodes()[dir_ino]
        if inode["type"] != NFDIR:
            return error_reply(NFSERR_NOTDIR)
        child = self._dir_find(inode, name)
        if child is None:
            return error_reply(NFSERR_NOENT)
        target = self._inodes()[child]
        if want_dir:
            if target["type"] != NFDIR:
                return error_reply(NFSERR_NOTDIR)
            if target["entries"]:
                return error_reply(NFSERR_NOTEMPTY)
        else:
            if target["type"] == NFDIR:
                return error_reply(NFSERR_ISDIR)
        self._leak(24)
        inode["entries"] = [(n, c) for n, c in inode["entries"] if n != name]
        self._free_inode(child)
        now = self._now()
        inode["mtime"] = now
        inode["ctime"] = now
        return NfsReply(status=NFS_OK)

    def rename(self, from_dir: bytes, from_name: str, to_dir: bytes, to_name: str) -> NfsReply:
        src_ino = self._resolve(from_dir)
        dst_ino = self._resolve(to_dir)
        if src_ino is None or dst_ino is None:
            return error_reply(NFSERR_STALE)
        src = self._inodes()[src_ino]
        dst = self._inodes()[dst_ino]
        if src["type"] != NFDIR or dst["type"] != NFDIR:
            return error_reply(NFSERR_NOTDIR)
        bad = name_error(to_name)
        if bad is not None:
            return error_reply(bad)
        moving = self._dir_find(src, from_name)
        if moving is None:
            return error_reply(NFSERR_NOENT)
        existing = self._dir_find(dst, to_name)
        if existing is not None and existing != moving:
            target = self._inodes()[existing]
            mover = self._inodes()[moving]
            if target["type"] == NFDIR:
                if mover["type"] != NFDIR:
                    return error_reply(NFSERR_ISDIR)
                if target["entries"]:
                    return error_reply(NFSERR_NOTEMPTY)
            elif mover["type"] == NFDIR:
                return error_reply(NFSERR_NOTDIR)
            dst["entries"] = [(n, c) for n, c in dst["entries"] if n != to_name]
            self._free_inode(existing)
        self._leak(32)
        src["entries"] = [(n, c) for n, c in src["entries"] if n != from_name]
        dst["entries"].append((to_name, moving))
        now = self._now()
        for d in (src, dst):
            d["mtime"] = now
            d["ctime"] = now
        return NfsReply(status=NFS_OK)

    def readdir(self, fh: bytes) -> NfsReply:
        dir_ino = self._resolve(fh)
        if dir_ino is None:
            return error_reply(NFSERR_STALE)
        inode = self._inodes()[dir_ino]
        if inode["type"] != NFDIR:
            return error_reply(NFSERR_NOTDIR)
        entries = [
            (name, self._handle(child)) for name, child in inode["entries"]
        ]  # insertion order, this vendor never sorts
        return NfsReply(status=NFS_OK, entries=entries, attr=self._attr(dir_ino))

    def statfs(self, fh: bytes) -> NfsReply:
        if self._resolve(fh) is None:
            return error_reply(NFSERR_STALE)
        sb = self.disk[_SB]
        payload = (
            XdrEncoder()
            .pack_u32(8192)
            .pack_u32(BLOCK_SIZE)
            .pack_u64(sb["num_blocks"])
            .pack_u64(sb["num_blocks"] - sb["high_water"] + len(sb["freed_blocks"]))
            .getvalue()
        )
        return NfsReply(status=NFS_OK, data=payload)
