#!/usr/bin/env python3
"""Opportunistic N-version programming vs a deterministic software bug.

The scenario the paper's introduction motivates: a deterministic bug (here,
a write payload that crashes the server) takes down *every* replica of a
homogeneous deployment at once — but in a deployment whose replicas run
distinct off-the-shelf implementations, only the buggy vendor dies and the
service keeps running.  Proactive recovery then rejuvenates the crashed
replica from the abstract state of the survivors.

Run:  python examples/n_version_survival.py
"""

from repro.bft.client import InvocationTimeout
from repro.bft.config import BFTConfig
from repro.faults import POISON, BuggyServer
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import Ext2FS, FFS, LogFS, MemFS
from repro.nfs.relay import NFSDeployment

CONFIG = dict(num_objects=128, config=BFTConfig(checkpoint_interval=16, log_window=64))


def homogeneous() -> NFSDeployment:
    """Everyone runs the buggy vendor: no failure independence."""
    return NFSDeployment(
        {
            rid: (lambda disk, i=i: BuggyServer(MemFS(disk=disk, seed=10 + i)))
            for i, rid in enumerate(["R0", "R1", "R2", "R3"])
        },
        **CONFIG,
    )


def n_version() -> NFSDeployment:
    """Four vendors; the bug exists only in vendor A's code."""
    return NFSDeployment(
        {
            "R0": lambda disk: BuggyServer(MemFS(disk=disk, seed=10)),
            "R1": lambda disk: Ext2FS(disk=disk, seed=11),
            "R2": lambda disk: FFS(disk=disk, seed=12),
            "R3": lambda disk: LogFS(disk=disk, seed=13),
        },
        **CONFIG,
    )


def trigger_bug(deployment: NFSDeployment, label: str) -> None:
    fs = NFSClient(deployment.relay("C0"))
    fs.write_file("/normal.txt", b"everything is fine")
    fs.create("/bomb.txt")
    print(f"\n--- {label} ---")
    try:
        fs.write("/bomb.txt", POISON)
        print("poison write completed (service survived the trigger)")
    except (InvocationTimeout, Exception) as exc:
        deployment.cluster.client("C0").cancel()
        print(f"poison write got no quorum: {type(exc).__name__}")
    crashed = [
        rid for rid in deployment.cluster.hosts
        if deployment.cluster.network.is_down(rid)
    ]
    print(f"crashed replicas: {crashed or 'none'}")
    try:
        fs.write_file("/after.txt", b"service still answering")
        print("post-bug write:", fs.read_file("/after.txt").decode())
    except (InvocationTimeout, Exception):
        deployment.cluster.client("C0").cancel()
        print("post-bug write FAILED: the service is gone")


def main() -> None:
    trigger_bug(homogeneous(), "same implementation on all four replicas")

    deployment = n_version()
    trigger_bug(deployment, "four distinct implementations (N-version)")

    # Rejuvenate the one crashed replica: scrub the poison, let the quorum
    # advance, then reboot R0 from its disk + the survivors' abstract state.
    fs = NFSClient(deployment.relay("C0"))
    fs.unlink("/bomb.txt")
    for i in range(20):
        fs.write_file(f"/progress{i}.txt", bytes([i]) * 16)
    deployment.sim.run_for(1.0)
    host = deployment.cluster.hosts["R0"]
    deployment.cluster.recover("R0")
    deployment.sim.run_for(5.0)
    print(
        "\nproactive recovery of the crashed vendor:",
        "completed" if host.replica.counters.get("recoveries_completed") else "failed",
    )
    roots = {
        rid: deployment.cluster.service(rid).current_node(0, 0)[1].hex()[:12]
        for rid in deployment.cluster.hosts
    }
    print("abstract roots:", roots)
    assert len(set(roots.values())) == 1
    print("back to full strength: all four replicas agree again")


if __name__ == "__main__":
    main()
