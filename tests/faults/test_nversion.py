"""Opportunistic N-version programming vs common-mode bugs (E8), and
aging/rejuvenation (E10)."""

import pytest

from repro.bft.client import InvocationTimeout
from repro.bft.config import BFTConfig
from repro.faults import POISON, BuggyServer
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import Ext2FS, FFS, LogFS, MemFS
from repro.nfs.relay import NFSDeployment


def same_vendor_buggy():
    """Every replica runs the same buggy vendor (no version diversity)."""
    return NFSDeployment(
        {
            rid: (lambda disk, i=i: BuggyServer(MemFS(disk=disk, seed=10 + i)))
            for i, rid in enumerate(["R0", "R1", "R2", "R3"])
        },
        num_objects=64,
        config=BFTConfig(checkpoint_interval=8, log_window=16),
    )


def n_version_one_buggy():
    """Four distinct vendors; the bug exists only in vendor A's code."""
    return NFSDeployment(
        {
            "R0": lambda disk: BuggyServer(MemFS(disk=disk, seed=10)),
            "R1": lambda disk: Ext2FS(disk=disk, seed=11),
            "R2": lambda disk: FFS(disk=disk, seed=12),
            "R3": lambda disk: LogFS(disk=disk, seed=13),
        },
        num_objects=64,
        config=BFTConfig(checkpoint_interval=8, log_window=16),
    )


def test_common_mode_bug_takes_down_same_vendor_deployment():
    dep = same_vendor_buggy()
    fs = NFSClient(dep.relay("C0"))
    fs.write_file("/ok.txt", b"fine")
    fs.create("/bomb.txt")
    with pytest.raises((InvocationTimeout, Exception)):
        fs.write("/bomb.txt", POISON)  # every replica executes it and dies
    # All four replicas crashed: the service is gone.
    assert all(dep.cluster.network.is_down(rid) for rid in dep.cluster.hosts)


def test_n_version_masks_the_same_bug():
    dep = n_version_one_buggy()
    fs = NFSClient(dep.relay("C0"))
    fs.write_file("/ok.txt", b"fine")
    fs.create("/bomb.txt")
    fs.write("/bomb.txt", POISON)  # only R0 dies; quorum survives
    assert dep.cluster.network.is_down("R0")
    assert not any(dep.cluster.network.is_down(rid) for rid in ("R1", "R2", "R3"))
    # Service still fully available and correct.
    assert fs.read_file("/bomb.txt") == POISON
    fs.write_file("/after.txt", b"still alive")
    assert fs.read_file("/after.txt") == b"still alive"


def test_crashed_buggy_replica_rejuvenated_by_recovery():
    dep = n_version_one_buggy()
    fs = NFSClient(dep.relay("C0"))
    fs.create("/bomb.txt")
    fs.write("/bomb.txt", POISON)
    dep.sim.run_for(1.0)
    assert dep.cluster.network.is_down("R0")
    host = dep.cluster.hosts["R0"]
    assert dep.cluster.recover("R0")  # reboot from disk; fresh implementation
    dep.sim.run_for(5.0)
    assert host.replica.counters.get("recoveries_completed") >= 1
    roots = {
        rid: dep.cluster.service(rid).current_node(0, 0)[1] for rid in dep.cluster.hosts
    }
    assert len(set(roots.values())) == 1


def test_aging_crash_healed_by_proactive_recovery():
    """A replica whose implementation leaks memory crashes under load; the
    watchdog reboot restores it (software rejuvenation, paper section 2.2)."""
    dep = NFSDeployment(
        {
            "R0": lambda disk: MemFS(disk=disk, seed=1, aging_threshold=2500),
            "R1": lambda disk: Ext2FS(disk=disk, seed=2),
            "R2": lambda disk: FFS(disk=disk, seed=3),
            "R3": lambda disk: LogFS(disk=disk, seed=4),
        },
        num_objects=64,
        config=BFTConfig(checkpoint_interval=8, log_window=16),
    )
    fs = NFSClient(dep.relay("C0"))
    fs.create("/f")
    for i in range(80):
        fs.write("/f", b"x" * 200, offset=0)
    dep.sim.run_for(1.0)
    assert dep.cluster.network.is_down("R0")  # aged out and crashed
    host = dep.cluster.hosts["R0"]
    assert dep.cluster.recover("R0")
    dep.sim.run_for(5.0)
    assert host.replica.counters.get("recoveries_completed") >= 1
    # The leak is gone after reboot; a few more writes do not kill it again.
    for i in range(5):
        fs.write("/f", b"y" * 50, offset=0)
    dep.sim.run_for(1.0)
    assert not dep.cluster.network.is_down("R0")
