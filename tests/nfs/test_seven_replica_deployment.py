"""n=7, f=2 heterogeneous file service using all five vendors.

The paper's point about market diversity ("four or more distinct
implementations") composed with a larger quorum system: seven replicas over
five distinct implementations tolerate two simultaneous faults."""

import pytest

from repro.bft.config import BFTConfig
from repro.nfs.audit import diff_wrappers
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import BtrFS, Ext2FS, FFS, LogFS, MemFS
from repro.nfs.relay import NFSDeployment

SEVEN = [f"R{i}" for i in range(7)]
VENDOR_ROTATION = [MemFS, Ext2FS, FFS, LogFS, BtrFS, MemFS, Ext2FS]


def seven_deployment():
    factories = {
        rid: (lambda disk, i=i: VENDOR_ROTATION[i](disk=disk, seed=70 + i))
        for i, rid in enumerate(SEVEN)
    }
    return NFSDeployment(
        factories,
        num_objects=64,
        config=BFTConfig(
            replica_ids=list(SEVEN), f=2, checkpoint_interval=8, log_window=16
        ),
    )


def test_seven_replicas_converge():
    dep = seven_deployment()
    fs = NFSClient(dep.relay("C0"))
    fs.mkdir("/d")
    for i in range(8):
        fs.write_file(f"/d/f{i}", bytes([i]) * 40)
    dep.sim.run_for(1.0)
    roots = {
        rid: dep.cluster.service(rid).current_node(0, 0)[1] for rid in dep.cluster.hosts
    }
    assert len(set(roots.values())) == 1


def test_two_faults_masked_with_five_vendors():
    dep = seven_deployment()
    fs = NFSClient(dep.relay("C0"))
    fs.write_file("/pre", b"before faults")
    dep.cluster.crash("R2")
    dep.cluster.crash("R5")
    fs.write_file("/during", b"with two crashed")
    assert fs.read_file("/pre") == b"before faults"
    assert fs.read_file("/during") == b"with two crashed"


def test_recovery_in_seven_replica_deployment():
    dep = seven_deployment()
    fs = NFSClient(dep.relay("C0"))
    for i in range(12):
        fs.write_file(f"/f{i}", bytes([i]) * 30)
    dep.sim.run_for(1.0)
    host = dep.cluster.hosts["R4"]  # the BtrFS replica
    assert dep.cluster.recover("R4")
    dep.sim.run_for(5.0)
    assert host.replica.counters.get("recoveries_completed") == 1
    assert diff_wrappers(dep.wrapper("R4"), dep.wrapper("R0")) == []
