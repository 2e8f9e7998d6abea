"""Deployment and relay plumbing."""

import pytest

from repro.bft.config import BFTConfig
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import MemFS
from repro.nfs.relay import NFSDeployment, NFSRelay


def memfs_factories():
    return {
        rid: (lambda disk, i=i: MemFS(disk=disk, seed=50 + i))
        for i, rid in enumerate(["R0", "R1", "R2", "R3"])
    }


def test_requires_factory_per_replica():
    with pytest.raises(ValueError):
        NFSDeployment({"R0": lambda disk: MemFS(disk=disk)})


def test_disks_persist_per_replica():
    dep = NFSDeployment(memfs_factories(), num_objects=32)
    fs = NFSClient(dep.relay("C0"))
    fs.write_file("/x", b"1")
    assert set(dep.cluster.disks) == {"R0", "R1", "R2", "R3"}
    for disk in dep.cluster.disks.values():
        assert "memfs:nodes" in disk


def test_accessors(dep=None):
    dep = NFSDeployment(memfs_factories(), num_objects=32)
    for rid in ("R0", "R1", "R2", "R3"):
        assert dep.wrapper(rid).impl is dep.impl(rid)
        assert isinstance(dep.impl(rid), MemFS)


def test_multiple_relays_share_the_service():
    dep = NFSDeployment(memfs_factories(), num_objects=32)
    alice = NFSClient(dep.relay("alice"))
    bob = NFSClient(dep.relay("bob"))
    alice.write_file("/shared.txt", b"from alice")
    assert bob.read_file("/shared.txt") == b"from alice"
    bob.unlink("/shared.txt")
    assert not alice.exists("/shared.txt")


def test_relay_read_only_flag_off_orders_reads():
    dep = NFSDeployment(memfs_factories(), num_objects=32)
    fs = NFSClient(dep.relay("C0", read_only_optimization=False))
    fs.write_file("/f", b"v")
    executed_before = dep.cluster.replica("R0").last_executed
    fs.read_file("/f")
    dep.sim.run_for(0.5)
    assert dep.cluster.replica("R0").last_executed > executed_before


def test_relay_read_only_flag_on_skips_ordering():
    dep = NFSDeployment(memfs_factories(), num_objects=32)
    fs = NFSClient(dep.relay("C0"))
    fs.write_file("/f", b"v")
    dep.sim.run_for(0.5)
    executed_before = dep.cluster.replica("R0").last_executed
    # A pure read (no path re-resolution caching games: stat the root).
    fs.stat("/")
    dep.sim.run_for(0.5)
    assert dep.cluster.replica("R0").last_executed == executed_before


def test_num_objects_bounds_namespace():
    dep = NFSDeployment(memfs_factories(), num_objects=4)
    fs = NFSClient(dep.relay("C0"))
    fs.create("/a")
    fs.create("/b")
    fs.create("/c")
    from repro.nfs.client import NFSError

    with pytest.raises(NFSError):
        fs.create("/overflow")
