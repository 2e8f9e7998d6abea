#!/usr/bin/env python3
"""Quickstart: a Byzantine-fault-tolerant file service in ~40 lines.

Builds the paper's deployment — four replicas, each running a *different*
off-the-shelf file-system implementation behind a BASE conformance wrapper —
mounts it through a relay, and does ordinary file work while one replica is
crashed.

Run:  python examples/quickstart.py
"""

from repro.bft.config import BFTConfig
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import HETEROGENEOUS
from repro.nfs.relay import NFSDeployment


def main() -> None:
    # One implementation factory per replica: opportunistic N-version
    # programming (paper section 1).  HETEROGENEOUS puts MemFS, Ext2FS, FFS
    # and LogFS on R0-R3 with skewed clocks; the vendors differ in
    # representation, file-handle scheme, readdir order, and timestamp
    # granularity.
    deployment = NFSDeployment(
        HETEROGENEOUS,
        config=BFTConfig(checkpoint_interval=16, log_window=64),
        num_objects=256,
    )

    # The relay plays the part of the user-level relay in Figure 2; the
    # client is the "kernel NFS client" that applications talk to.
    fs = NFSClient(deployment.relay("C0"))

    fs.mkdir("/project")
    fs.write_file("/project/README.md", b"# BASE quickstart\n")
    fs.write_file("/project/data.bin", bytes(range(256)) * 8)
    fs.symlink("/project/README.md", "/latest")

    print("listing /          :", fs.listdir("/"))
    print("listing /project   :", fs.listdir("/project"))
    print("README reads back  :", fs.read_file("/project/README.md").decode().strip())
    print("symlink target     :", fs.readlink("/latest"))
    stat = fs.stat("/project/data.bin")
    print(f"data.bin           : {stat.size} bytes, mtime={stat.mtime}us (agreed)")

    # Byzantine fault tolerance in action: crash one replica; nothing
    # user-visible changes (f = 1 of n = 4).
    deployment.cluster.crash("R2")
    fs.write_file("/project/under-failure.txt", b"written with a replica down")
    print("with R2 crashed    :", fs.read_file("/project/under-failure.txt").decode())

    # The four concrete states differ wildly; the abstract states agree.
    deployment.cluster.restart("R2")
    deployment.sim.run_for(3.0)
    roots = {
        rid: deployment.cluster.service(rid).current_node(0, 0)[1].hex()[:16]
        for rid in deployment.cluster.hosts
    }
    print("abstract roots     :", roots)
    assert len(set(roots.values())) == 1, "replicas diverged!"
    print("four different implementations, one abstract state — OK")


if __name__ == "__main__":
    main()
