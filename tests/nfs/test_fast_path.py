"""The fast path on the paper's own service: speculation, promotion and
rollback through ``NFSConformanceWrapper.put_objs`` on four different file
systems.  (``BASEService`` inherits the speculation surface from
``StateMachine``; before that it raised ``NotImplementedError`` at the first
prepared batch.)"""

import pytest

from repro.base.library import BASEService
from repro.bft.config import VARIANTS, BFTConfig
from repro.bft.nondet import encode_timestamp
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import BtrFS, Ext2FS, FFS, LogFS, MemFS
from repro.nfs.protocol import (
    CreateCall,
    MkdirCall,
    NfsReply,
    ReadCall,
    RemoveCall,
    RenameCall,
    Sattr,
    WriteCall,
)
from repro.nfs.relay import NFSDeployment
from repro.nfs.spec import NFSAbstractSpec, ROOT_OID
from repro.nfs.wrapper import NFSConformanceWrapper
from repro.util.clock import ManualClock

from tests.nfs.test_replicated import HETERO, roots


def fast_deployment():
    config = BFTConfig(
        checkpoint_interval=8, log_window=16, **VARIANTS["speculation"].overrides
    )
    return NFSDeployment(dict(HETERO), config=config, num_objects=64)


def create_write_read(fs, count):
    for i in range(count):
        fs.write_file(f"/d/f{i}", bytes([i]) * 50)
        assert fs.read_file(f"/d/f{i}") == bytes([i]) * 50


def assert_one_root(dep):
    dep.sim.run_for(3.0)
    values = roots(dep)
    assert len(set(values.values())) == 1, values


def test_heterogeneous_deployment_runs_on_the_fast_path():
    dep = fast_deployment()
    fs = NFSClient(dep.relay("C0"))
    fs.mkdir("/d")
    create_write_read(fs, 20)
    assert fs.listdir("/d") == sorted(f"f{i}" for i in range(20))
    assert_one_root(dep)
    counters = dep.cluster.total_counters()
    assert counters.get("spec_promotions") == counters.get("spec_batches") > 0
    assert counters.get("tentative_replies_accepted") > 0
    assert counters.get("spec_rollbacks") == 0


def test_primary_crash_rolls_speculation_back_through_put_objs():
    dep = fast_deployment()
    fs = NFSClient(dep.relay("C0"))
    fs.mkdir("/d")
    # Timed so the primary dies while a backup holds an open frame.
    dep.sim.schedule(0.0055, lambda: dep.cluster.crash("R0"))
    dep.sim.schedule(1.0, lambda: dep.cluster.restart("R0"))
    create_write_read(fs, 12)
    assert_one_root(dep)
    counters = dep.cluster.total_counters()
    assert counters.get("view_changes_completed") > 0
    assert counters.get("spec_rollbacks") > 0, (
        "the crash never caught an open speculation frame — the scenario "
        "this test exists for did not occur"
    )
    assert (
        counters.get("spec_promotions") + counters.get("spec_batches_rolled_back")
        == counters.get("spec_batches")
    )


def _service(vendor, seed):
    impl = vendor(disk={}, seed=seed, clock=lambda: 100.0)
    wrapper = NFSConformanceWrapper(impl, NFSAbstractSpec(32), disk={})
    return BASEService(wrapper, ManualClock(start=5.0))


def _run(service, call, micros):
    reply = NfsReply.decode(service.execute(call.encode(), "C0", encode_timestamp(micros)))
    assert reply.status == 0, call
    return reply


def _committed_prefix(service):
    directory = _run(service, MkdirCall(dir_fh=ROOT_OID, name="d", sattr=Sattr(mode=0o755)), 6_000_000).fh
    keep = _run(service, CreateCall(dir_fh=directory, name="keep", sattr=Sattr(mode=0o644)), 6_000_001).fh
    _run(service, WriteCall(fh=keep, offset=0, data=b"before"), 6_000_002)
    service.record_reply("C0", 1, b"r1")
    service.manager.take_checkpoint(8)
    return directory, keep


@pytest.mark.parametrize("vendor", [MemFS, Ext2FS, FFS, LogFS, BtrFS])
def test_rollback_of_nested_frames_restores_the_abstract_state(vendor):
    """Two frames of creates, overwrites, a remove and a cross-directory
    rename: rollback hands ``put_objs`` one frame's objects at a time (never
    a whole checkpoint) and must land on the pre-speculation state."""
    service = _service(vendor, seed=5)
    directory, keep = _committed_prefix(service)
    before = [service.wrapper.get_obj(i) for i in range(32)]
    live_root = service.current_node(0, 0)

    service.begin_speculation()
    tentative = _run(service, CreateCall(dir_fh=directory, name="t", sattr=Sattr(mode=0o644)), 6_000_003).fh
    _run(service, WriteCall(fh=tentative, offset=0, data=b"zzz"), 6_000_004)
    service.record_reply("C0", 2, b"r2")
    service.begin_speculation()
    _run(service, WriteCall(fh=keep, offset=0, data=b"AFTER!!"), 6_000_005)
    _run(service, RemoveCall(dir_fh=directory, name="keep"), 6_000_006)
    _run(
        service,
        RenameCall(from_dir=directory, from_name="t", to_dir=ROOT_OID, to_name="moved"),
        6_000_007,
    )
    service.record_reply("C0", 3, b"r3")

    assert service.rollback_speculation() == 2
    assert [service.wrapper.get_obj(i) for i in range(32)] == before
    assert service.manager.last_recorded("C0") == (1, b"r1")
    assert service.current_node(0, 0) == live_root
    assert _run(service, ReadCall(fh=keep, offset=0, count=100), 6_000_008).data == b"before"

    # And the implementation underneath is usable: more work lands on the
    # same abstract state as on a replica that never speculated.
    twin = _service(vendor, seed=99)
    _committed_prefix(twin)
    for machine in (service, twin):
        _run(machine, CreateCall(dir_fh=directory, name="next", sattr=Sattr(mode=0o644)), 6_000_010)
    assert service.manager.take_checkpoint(16) == twin.manager.take_checkpoint(16)
