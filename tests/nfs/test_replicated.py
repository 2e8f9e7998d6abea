"""End-to-end replicated file service (E2/E6): heterogeneous replicas,
fail-over, state transfer, proactive recovery, corruption healing."""

import pytest

from repro.bft.config import BFTConfig
from repro.nfs.client import NFSClient, NFSError
from repro.nfs.fileserver import Ext2FS, FFS, LogFS, MemFS
from repro.nfs.relay import NFSDeployment

HETERO = {
    "R0": lambda disk: MemFS(disk=disk, seed=1, clock_skew=0.5),
    "R1": lambda disk: Ext2FS(disk=disk, seed=2, clock_skew=-0.3),
    "R2": lambda disk: FFS(disk=disk, seed=3, clock_skew=0.8),
    "R3": lambda disk: LogFS(disk=disk, seed=4, clock_skew=0.1),
}


def hetero_deployment(**kwargs):
    kwargs.setdefault("config", BFTConfig(checkpoint_interval=8, log_window=16))
    kwargs.setdefault("num_objects", 64)
    return NFSDeployment(dict(HETERO), **kwargs)


def roots(dep):
    return {
        rid: dep.cluster.service(rid).current_node(0, 0)[1] for rid in dep.cluster.hosts
    }


def assert_converged(dep):
    dep.sim.run_for(1.0)
    values = roots(dep)
    assert len(set(values.values())) == 1, values


class TestHeterogeneousService:
    def test_basic_file_lifecycle(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.mkdir("/docs")
        fs.write_file("/docs/a.txt", b"alpha")
        assert fs.read_file("/docs/a.txt") == b"alpha"
        assert fs.listdir("/") == ["docs"]
        fs.rename("/docs/a.txt", "/docs/b.txt")
        assert fs.listdir("/docs") == ["b.txt"]
        fs.unlink("/docs/b.txt")
        fs.rmdir("/docs")
        assert fs.listdir("/") == []
        assert_converged(dep)

    def test_replies_identical_enough_for_weak_quorum(self):
        """f+1 matching replies require byte-identical results from replicas
        running four different implementations."""
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.mkdir("/d")
        for i in range(8):
            fs.write_file(f"/d/f{i}", bytes([i]) * 100)
        listing = fs.listdir("/d")
        assert listing == sorted(listing)
        client = dep.cluster.client("C0")
        assert client.counters.get("replies_accepted") > 0

    def test_stat_fields_are_abstract(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.write_file("/f", b"12345")
        attr = fs.stat("/f")
        assert attr.fsid == 1
        assert attr.size == 5
        assert attr.mtime > 0

    def test_error_statuses_agree(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        with pytest.raises(NFSError):
            fs.read_file("/missing")
        fs.mkdir("/d")
        fs.write_file("/d/x", b"1")
        with pytest.raises(NFSError):
            fs.rmdir("/d")  # not empty

    def test_symlinks(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.write_file("/target", b"t")
        fs.symlink("/target", "/ln")
        assert fs.readlink("/ln") == "/target"


class TestFailuresDuringService:
    def test_replica_crash_is_masked(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.mkdir("/d")
        dep.cluster.crash("R2")
        for i in range(6):
            fs.write_file(f"/d/f{i}", b"x" * 50)
        assert len(fs.listdir("/d")) == 6

    def test_primary_crash_is_masked(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.mkdir("/d")
        dep.cluster.crash("R0")
        fs.write_file("/d/after-failover", b"ok")
        assert fs.read_file("/d/after-failover") == b"ok"

    def test_lagging_heterogeneous_replica_catches_up(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.mkdir("/d")
        dep.cluster.crash("R3")
        for i in range(30):
            fs.write_file(f"/d/f{i % 5}", bytes([i]) * 40)
        dep.cluster.restart("R3")
        dep.sim.run_for(5.0)
        r3 = dep.cluster.replica("R3")
        assert r3.counters.get("state_transfers_completed") >= 1
        assert_converged(dep)


class TestProactiveRecovery:
    @pytest.mark.parametrize("victim", ["R0", "R1", "R2", "R3"])
    def test_each_vendor_recovers(self, victim):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.mkdir("/w")
        for i in range(10):
            fs.write_file(f"/w/f{i}", b"d" * (20 + i))
        dep.sim.run_for(1.0)
        host = dep.cluster.hosts[victim]
        assert host.recover_now()
        dep.sim.run_for(5.0)
        assert host.replica.counters.get("recoveries_completed") == 1
        assert_converged(dep)
        fs.write_file("/w/post", b"post")
        assert fs.read_file("/w/post") == b"post"

    def test_disk_corruption_healed_by_recovery(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.mkdir("/w")
        fs.write_file("/w/precious", b"SAFE" * 50)
        dep.sim.run_for(1.0)
        # Flip bits in R0's (MemFS) persistent node table.
        nodes = dep.cluster.disks["R0"]["memfs:nodes"]
        victim = next(fid for fid, n in nodes.items() if n.get("data"))
        nodes[victim]["data"] = b"EVIL"
        host = dep.cluster.hosts["R0"]
        host.recover_now()
        dep.sim.run_for(5.0)
        assert host.replica.counters.get("objects_fetched") >= 1
        assert_converged(dep)
        assert fs.read_file("/w/precious") == b"SAFE" * 50

    def test_rolling_recovery_all_replicas(self):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"))
        fs.mkdir("/w")
        for i in range(8):
            fs.write_file(f"/w/f{i}", bytes([i]) * 30)
        dep.sim.run_for(1.0)
        for victim in ("R0", "R1", "R2", "R3"):
            host = dep.cluster.hosts[victim]
            assert host.recover_now()
            dep.sim.run_for(4.0)
            assert host.replica.counters.get("recoveries_completed") >= 1
        assert_converged(dep)
        assert fs.read_file("/w/f3") == bytes([3]) * 30
