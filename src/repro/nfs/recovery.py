"""Proactive-recovery support for the file service (paper section 3.4).

NFS file handles are volatile: the same object may get a different handle
after the server restarts.  The wrapper therefore maintains a map from the
persistent ⟨fsid, fileid⟩ attribute pair to oids; ``save_rep`` writes it (and
the rest of the conformance rep) to disk synchronously before a proactive
recovery, and ``reconstruct_rep`` rebuilds the rep after reboot by walking
the file system's directory tree depth-first from the root, using the map to
recover each object's oid.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.nfs.protocol import NFDIR
from repro.nfs.wrapper import LIMBO_NAME, NFSConformanceWrapper, _REP_KEY


def save_rep(wrapper: NFSConformanceWrapper) -> None:
    """Persist the conformance rep and the ⟨fsid, fileid⟩→oid map."""
    entries = [
        {
            "generation": entry.generation,
            "allocated": entry.allocated,
            "mtime": entry.mtime,
            "ctime": entry.ctime,
        }
        for entry in wrapper.entries
    ]
    id_map = [
        (fsid, fileid, index) for (fsid, fileid), index in wrapper.id_to_index.items()
    ]
    wrapper.disk[_REP_KEY] = {"entries": entries, "id_map": id_map}


def reconstruct_rep(wrapper: NFSConformanceWrapper) -> None:
    """Rebuild the conformance rep from the saved map plus a depth-first walk
    of the (freshly restarted) implementation's directory tree."""
    saved = wrapper.disk[_REP_KEY]
    id_map: Dict[Tuple[int, int], int] = {
        (fsid, fileid): index for fsid, fileid, index in saved["id_map"]
    }
    for index, snapshot in enumerate(saved["entries"]):
        if index >= len(wrapper.entries):
            break
        entry = wrapper.entries[index]
        entry.generation = snapshot["generation"]
        entry.mtime = snapshot["mtime"]
        entry.ctime = snapshot["ctime"]
        entry.fh = None  # rebound during the walk if the object still exists
    wrapper._free_floor = 0

    impl = wrapper.impl
    root_fh = impl.root_handle()
    wrapper.fh_to_index.clear()
    wrapper.id_to_index.clear()

    # Depth-first traversal from the root (paper 3.4).
    stack: List[Tuple[bytes, int, str]] = [(root_fh, 0, "")]
    visited = set()
    while stack:
        fh, parent_index, name = stack.pop()
        attr_reply = impl.getattr(fh)
        if not attr_reply.ok or attr_reply.attr is None:
            continue
        attr = attr_reply.attr
        key = (attr.fsid, attr.fileid)
        if key in visited:
            continue
        visited.add(key)
        index = 0 if fh == root_fh else id_map.get(key)
        if index is None:
            # Concrete object unknown to the saved map (e.g. orphaned limbo
            # content): leave it; state transfer never looks at it.
            pass
        else:
            entry = wrapper.entries[index]
            entry.fh = fh
            entry.parent = parent_index
            entry.name = name
            wrapper.fh_to_index[fh] = index
            wrapper.id_to_index[key] = index
        if attr.ftype == NFDIR:
            listing = impl.readdir(fh)
            if listing.ok:
                for child_name, child_fh in listing.entries:
                    if fh == root_fh and child_name == LIMBO_NAME:
                        continue
                    stack.append((child_fh, index if index is not None else 0, child_name))
