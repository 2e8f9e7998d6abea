"""The micro-operation workload stream shared by E5 and E10."""

from __future__ import annotations

import random

from repro.nfs.client import NFSClient


def write_heavy(fs: NFSClient, ops: int, width: int = 8, payload: int = 256, seed: int = 0) -> int:
    """Repeatedly rewrite a small working set of files; returns op count."""
    rng = random.Random(seed)
    fs.mkdir("/wh") if not fs.exists("/wh") else None
    for i in range(width):
        if not fs.exists(f"/wh/f{i}"):
            fs.create(f"/wh/f{i}")
    for i in range(ops):
        target = rng.randrange(width)
        fs.write(f"/wh/f{target}", bytes([i % 251]) * payload, offset=0)
    return ops
