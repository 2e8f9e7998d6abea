"""Reused read-only answers (``BASEService``): the contract and its harness.

A read-only answer whose wrapper declared, through ``reads``, every abstract
object it depends on is kept by op bytes and reused until ``modify`` names
one of those objects or ``put_objs`` installs anything.  ``CheckedService``
re-runs the wrapper on every reuse and records any answer that differs from
the fresh one; the deployments below must reuse answers and record nothing,
and the plant at the end (an attribute reply that stops declaring its
object) must be recorded.
"""

import pytest

from repro.base.library import BASEService
from repro.bench.andrew import andrew_comparison
from repro.bft.nondet import encode_timestamp
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import MemFS
from repro.nfs.protocol import (
    CreateCall,
    GetattrCall,
    LookupCall,
    MkdirCall,
    NfsReply,
    Sattr,
    StatfsCall,
    WriteCall,
)
from repro.nfs.spec import NFSAbstractSpec, ROOT_OID
from repro.nfs.wrapper import NFSConformanceWrapper
from repro.util.clock import ManualClock
from repro.util.xdr import XdrDecoder

from tests.base.test_tutorial_bank import BankSpec, BankWrapper, Ledger, balance_op
from tests.nfs.test_fast_path import create_write_read, fast_deployment


class CheckedService(BASEService):
    """Recomputes every reused answer; ``mismatches`` holds (op, reused,
    fresh) for each one that differs, ``reused`` counts them all."""

    reused = 0
    mismatches = []

    def execute(self, op, client_id, nondet, read_only=False):
        before = self.manager.counters.get("read_answers_reused")
        answer = super().execute(op, client_id, nondet, read_only=read_only)
        if self.manager.counters.get("read_answers_reused") > before:
            CheckedService.reused += 1
            fresh = self.wrapper.execute(op, client_id, 0, read_only=True)
            if fresh != answer:
                CheckedService.mismatches.append((op, answer, fresh))
        return answer


@pytest.fixture(autouse=True)
def checked(monkeypatch):
    """Every ``NFSDeployment`` built in a test runs ``CheckedService``, and
    each test starts with no reuse and no mismatch recorded."""
    monkeypatch.setattr("repro.nfs.relay.BASEService", CheckedService)
    monkeypatch.setattr(CheckedService, "reused", 0)
    monkeypatch.setattr(CheckedService, "mismatches", [])
    return CheckedService


def test_andrew_under_a_recovery_rotation_reuses_only_current_answers(checked):
    run = andrew_comparison(1, recovery_period=1.0)
    assert run.deployment.cluster.total_counters().get("recoveries_completed") > 0
    assert checked.reused > 0
    assert checked.mismatches == []


def test_speculation_rollback_leaves_no_stale_answer(checked):
    dep = fast_deployment()
    fs = NFSClient(dep.relay("C0"))
    fs.mkdir("/d")
    dep.sim.schedule(0.0055, lambda: dep.cluster.crash("R0"))
    dep.sim.schedule(1.0, lambda: dep.cluster.restart("R0"))
    create_write_read(fs, 12)
    dep.sim.run_for(3.0)
    assert dep.cluster.total_counters().get("spec_rollbacks") > 0
    for i in range(12):
        assert fs.read_file(f"/d/f{i}") == bytes([i]) * 50
    assert fs.listdir("/d") == sorted(f"f{i}" for i in range(12))
    assert checked.reused > 0
    assert checked.mismatches == []


# -- one service, driven directly ----------------------------------------------------


def _service(num_objects=32):
    impl = MemFS(disk={}, seed=5, clock=lambda: 100.0)
    wrapper = NFSConformanceWrapper(impl, NFSAbstractSpec(num_objects), disk={})
    return CheckedService(wrapper, ManualClock(start=5.0))


class _Driver:
    def __init__(self, service):
        self.service = service
        self.micros = 6_000_000

    def write(self, call):
        self.micros += 1
        return NfsReply.decode(
            self.service.execute(call.encode(), "C0", encode_timestamp(self.micros))
        )

    def read(self, call):
        return NfsReply.decode(self.service.execute(call.encode(), "C0", b"", read_only=True))

    @property
    def reused(self):
        return self.service.manager.counters.get("read_answers_reused")


def _free_count(reply):
    dec = XdrDecoder(reply.data)
    dec.unpack_u32(), dec.unpack_u32(), dec.unpack_u64()
    return dec.unpack_u64()


def test_statfs_declares_nothing_and_sees_a_create():
    nfs = _Driver(_service())
    free = _free_count(nfs.read(StatfsCall(fh=ROOT_OID)))
    nfs.write(CreateCall(dir_fh=ROOT_OID, name="f", sattr=Sattr(mode=0o644)))
    assert _free_count(nfs.read(StatfsCall(fh=ROOT_OID))) == free - 1
    assert nfs.reused == 0


def test_a_write_drops_the_answers_that_read_the_file():
    nfs = _Driver(_service())
    fh = nfs.write(CreateCall(dir_fh=ROOT_OID, name="f", sattr=Sattr(mode=0o644))).fh
    lookup = LookupCall(dir_fh=ROOT_OID, name="f")
    assert nfs.read(lookup).attr.size == 0
    assert nfs.read(lookup).attr.size == 0
    assert nfs.reused == 1
    nfs.write(WriteCall(fh=fh, offset=0, data=b"12345"))
    assert nfs.read(lookup).attr.size == 5
    assert nfs.reused == 1
    assert CheckedService.mismatches == []


def test_ordered_executions_keep_no_answer():
    nfs = _Driver(_service())
    getattr_root = GetattrCall(fh=ROOT_OID)
    nfs.write(getattr_root)
    nfs.read(getattr_root)
    assert nfs.reused == 0
    nfs.read(getattr_root)
    assert nfs.reused == 1


def test_put_objs_drops_every_answer():
    service = _service()
    nfs = _Driver(service)
    nfs.write(MkdirCall(dir_fh=ROOT_OID, name="d", sattr=Sattr(mode=0o755)))
    nfs.read(GetattrCall(fh=ROOT_OID))
    service.put_objs({1: service.wrapper.get_obj(1)})  # not the root
    nfs.read(GetattrCall(fh=ROOT_OID))
    assert nfs.reused == 0
    nfs.read(GetattrCall(fh=ROOT_OID))
    assert nfs.reused == 1


def test_a_rollback_drops_an_answer_computed_on_tentative_state():
    service = _service()
    nfs = _Driver(service)
    fh = nfs.write(CreateCall(dir_fh=ROOT_OID, name="f", sattr=Sattr(mode=0o644))).fh
    service.manager.take_checkpoint(8)
    service.begin_speculation()
    nfs.write(WriteCall(fh=fh, offset=0, data=b"tentative"))
    assert nfs.read(GetattrCall(fh=fh)).attr.size == 9
    assert service.rollback_speculation() == 1
    assert nfs.read(GetattrCall(fh=fh)).attr.size == 0
    assert nfs.reused == 0


def test_the_answers_are_cleared_at_num_objects():
    service = _service(num_objects=8)
    nfs = _Driver(service)
    calls = [LookupCall(dir_fh=ROOT_OID, name=f"n{i}") for i in range(9)]
    for call in calls[:8]:
        nfs.read(call)  # NOENT, declared under the root
    for call in calls[:8]:
        nfs.read(call)
    assert nfs.reused == 8
    nfs.read(calls[8])  # a ninth answer: the eight go first
    nfs.read(calls[0])
    assert nfs.reused == 8
    nfs.read(calls[8])
    assert nfs.reused == 9


def test_a_wrapper_that_never_declares_is_never_reused():
    class Undeclared(BankWrapper):
        executions = 0

        def reads(self, index):
            pass

        def execute(self, *args, **kwargs):
            self.executions += 1
            return super().execute(*args, **kwargs)

    wrapper = Undeclared(Ledger(), BankSpec())
    service = BASEService(wrapper, ManualClock(start=5.0))
    for _ in range(3):
        service.execute(balance_op(3), "teller", b"", read_only=True)
    assert wrapper.executions == 3
    assert service.manager.counters.get("read_answers_reused") == 0


# -- the plant ------------------------------------------------------------------------


def test_an_attribute_reply_that_stops_declaring_its_object_is_caught(monkeypatch):
    """Planted: ``_ok_attr_reply`` no longer declares its index.  A LOOKUP is
    then kept under its directory alone, and after a WRITE to the file it
    finds the harness returns the file's pre-WRITE size."""
    declaring = NFSConformanceWrapper._ok_attr_reply

    def undeclared(self, index, impl_reply, **extra):
        reads, self._reads = self._reads, lambda index: None
        try:
            return declaring(self, index, impl_reply, **extra)
        finally:
            self._reads = reads

    monkeypatch.setattr(NFSConformanceWrapper, "_ok_attr_reply", undeclared)
    nfs = _Driver(_service())
    fh = nfs.write(CreateCall(dir_fh=ROOT_OID, name="f", sattr=Sattr(mode=0o644))).fh
    lookup = LookupCall(dir_fh=ROOT_OID, name="f")
    nfs.read(lookup)
    nfs.write(WriteCall(fh=fh, offset=0, data=b"12345"))
    assert nfs.read(lookup).attr.size == 0  # stale: the harness must see it
    [(op, reused, fresh)] = CheckedService.mismatches
    assert op == lookup.encode()
    assert NfsReply.decode(reused).attr.size == 0
    assert NfsReply.decode(fresh).attr.size == 5
