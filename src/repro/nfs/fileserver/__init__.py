"""Off-the-shelf NFS file-server implementations ("vendors").

Four independently structured servers, mirroring the paper's deployment
where each replica ran a different operating system's file system:

* :class:`~repro.nfs.fileserver.memfs.MemFS`       -- flat node table,
  sorted readdir, stable handles, microsecond timestamps;
* :class:`~repro.nfs.fileserver.ext2like.Ext2FS`   -- block/inode design,
  insertion-order readdir, second-granularity timestamps;
* :class:`~repro.nfs.fileserver.ffslike.FFS`       -- cylinder-group
  allocation, hash-order readdir, salted handles;
* :class:`~repro.nfs.fileserver.loglike.LogFS`     -- log-structured,
  reverse-insertion readdir, handles that do NOT survive restarts;
* :class:`~repro.nfs.fileserver.btrfslike.BtrFS`   -- copy-on-write
  extents, inode-order readdir, millisecond timestamps, lazy cleaner.

They agree only on the NFS protocol semantics; everything else (handles,
orders, clocks, fsids, allocation) differs or is nondeterministic, which is
exactly the behaviour the conformance wrapper must mask.
"""

from repro.nfs.fileserver.api import NFSServer, name_error
from repro.nfs.fileserver.memfs import MemFS
from repro.nfs.fileserver.ext2like import Ext2FS
from repro.nfs.fileserver.ffslike import FFS
from repro.nfs.fileserver.loglike import LogFS
from repro.nfs.fileserver.btrfslike import BtrFS

VENDORS = {"memfs": MemFS, "ext2": Ext2FS, "ffs": FFS, "logfs": LogFS, "btrfs": BtrFS}

#: The paper's deployment, one implementation factory per replica: a different
#: vendor behind each of R0-R3, each with its own seed and a clock up to 0.8 s
#: off the others' (the skews E11 reports; the wrapper masks them).
HETEROGENEOUS = {
    "R0": lambda disk: MemFS(disk=disk, seed=1, clock_skew=0.5),
    "R1": lambda disk: Ext2FS(disk=disk, seed=2, clock_skew=-0.3),
    "R2": lambda disk: FFS(disk=disk, seed=3, clock_skew=0.8),
    "R3": lambda disk: LogFS(disk=disk, seed=4, clock_skew=0.1),
}

__all__ = [
    "NFSServer", "name_error", "MemFS", "Ext2FS", "FFS", "LogFS", "BtrFS",
    "VENDORS", "HETEROGENEOUS",
]
