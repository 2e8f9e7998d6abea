"""The deterministic common-mode bug (E8).

``BuggyServer`` wraps any file-server implementation with a vendor bug: a
WRITE whose payload contains the poison pattern crashes the server process
(raises :class:`FaultInjected`).  Deploy the *same* buggy vendor on every
replica and one poisoned request takes the whole service down — deploy it on
only one replica of an N-version configuration and the fault is masked.
"""

from __future__ import annotations

from repro.nfs.fileserver.api import NFSServer
from repro.nfs.protocol import NfsReply, Sattr
from repro.util.errors import FaultInjected

POISON = b"\xDE\xAD\xBE\xEF-trigger"


class BuggyServer(NFSServer):
    """Delegating wrapper that adds one input-triggered deterministic bug."""

    def __init__(self, inner: NFSServer) -> None:
        self.inner = inner
        self.crashed = False

    @property
    def fsid(self) -> int:  # type: ignore[override]
        return self.inner.fsid

    def _check_alive(self) -> None:
        if self.crashed:
            raise FaultInjected("server previously hit the poison input")

    def write(self, fh: bytes, offset: int, data: bytes) -> NfsReply:
        self._check_alive()
        if POISON in data:
            self.crashed = True
            raise FaultInjected("deterministic bug: poison write pattern")
        return self.inner.write(fh, offset, data)

    # -- pure delegation for everything else ---------------------------------------

    def root_handle(self) -> bytes:
        self._check_alive()
        return self.inner.root_handle()

    def getattr(self, fh):
        self._check_alive()
        return self.inner.getattr(fh)

    def setattr(self, fh, sattr: Sattr):
        self._check_alive()
        return self.inner.setattr(fh, sattr)

    def lookup(self, dir_fh, name):
        self._check_alive()
        return self.inner.lookup(dir_fh, name)

    def readlink(self, fh):
        self._check_alive()
        return self.inner.readlink(fh)

    def read(self, fh, offset, count):
        self._check_alive()
        return self.inner.read(fh, offset, count)

    def create(self, dir_fh, name, sattr):
        self._check_alive()
        return self.inner.create(dir_fh, name, sattr)

    def remove(self, dir_fh, name):
        self._check_alive()
        return self.inner.remove(dir_fh, name)

    def rename(self, from_dir, from_name, to_dir, to_name):
        self._check_alive()
        return self.inner.rename(from_dir, from_name, to_dir, to_name)

    def symlink(self, dir_fh, name, target, sattr):
        self._check_alive()
        return self.inner.symlink(dir_fh, name, target, sattr)

    def mkdir(self, dir_fh, name, sattr):
        self._check_alive()
        return self.inner.mkdir(dir_fh, name, sattr)

    def rmdir(self, dir_fh, name):
        self._check_alive()
        return self.inner.rmdir(dir_fh, name)

    def readdir(self, fh):
        self._check_alive()
        return self.inner.readdir(fh)

    def statfs(self, fh):
        self._check_alive()
        return self.inner.statfs(fh)
