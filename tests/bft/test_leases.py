"""Read-lease properties (satellite of the fast path).

The lease protocol's safety contract is the same as the paper's read-only
optimization — a client accepts a read only on 2f+1 matching results — so
the properties under test are freshness and lifecycle:

* a leased read never returns a value older than the latest committed
  conflicting write the client observed acknowledged;
* leases die on conflicting writes (revocation + self-revocation) and on
  view changes, and reads never regress across either.
"""

from __future__ import annotations

import random

import pytest

from repro.bft.config import VARIANTS, BFTConfig
from repro.bft.testing import encode_get, encode_set, recording_cluster

FAST_PATH = dict(checkpoint_interval=8, log_window=16, **VARIANTS["fast-path"].overrides)


def fast_cluster(seed: int = 0):
    cluster, recorder = recording_cluster(config=BFTConfig(**FAST_PATH), seed=seed)
    return cluster, recorder


def _value(version: int) -> bytes:
    return bytes([version % 251, version // 251])


def _version(value: bytes) -> int:
    assert len(value) == 2, f"unexpected cell value {value!r}"
    return value[0] + 251 * value[1]


@pytest.mark.parametrize("seed", [1, 7, 13, 29, 101])
def test_leased_read_never_stale_sequential(seed):
    """Alternating committed writes and leased reads, seeded order: every
    read must return exactly the latest acknowledged write (sequentially
    there is nothing else it could correctly be)."""
    cluster, _recorder = fast_cluster(seed)
    writer = cluster.client("W")
    reader = cluster.client("RD")
    rng = random.Random(seed)
    version = 0
    writer.invoke(encode_set(3, _value(version)))
    for _step in range(24):
        if rng.random() < 0.5:
            version += 1
            assert writer.invoke(encode_set(3, _value(version))) == b"OK"
        else:
            observed = _version(reader.invoke(encode_get(3), read_only=True))
            assert observed == version, (
                f"read returned version {observed} after write {version} was "
                f"acknowledged"
            )
    served = sum(
        host.replica.counters.get("leased_reads_served")
        for host in cluster.hosts.values()
    )
    assert served > 0, "no read was ever served from a lease — test is vacuous"


@pytest.mark.parametrize("seed", [3, 17, 43])
def test_leased_read_monotonic_under_concurrency(seed):
    """A read racing a write may see the old or the new version, but never
    one older than the last acknowledged write, and successive reads never
    go backwards."""
    cluster, _recorder = fast_cluster(seed)
    writer = cluster.client("W")
    reader = cluster.client("RD")
    writer.invoke(encode_set(3, _value(0)))
    acked = 0
    last_read = 0
    for version in range(1, 16):
        write_box: list = []
        read_box: list = []
        floor = acked
        writer.invoke_async(encode_set(3, _value(version)), write_box.append)
        reader.invoke_async(encode_get(3), read_box.append, read_only=True)
        ok = cluster.sim.run_until_condition(
            lambda: bool(write_box) and bool(read_box), timeout=30.0
        )
        assert ok, "write/read pair did not complete"
        assert write_box[0] == b"OK"
        acked = version
        observed = _version(read_box[0])
        assert observed >= floor, (
            f"read returned version {observed}, older than acknowledged {floor}"
        )
        assert observed >= last_read, (
            f"reads went backwards: {observed} after {last_read}"
        )
        last_read = observed


def test_writes_revoke_leases():
    """A granted lease dies before a conflicting write commits: after a
    quiet period (lease granted) a new write must revoke/self-revoke, and a
    subsequent read sees the write."""
    cluster, _recorder = fast_cluster(5)
    writer = cluster.client("W")
    reader = cluster.client("RD")
    writer.invoke(encode_set(3, _value(1)))
    # Quiet read: gets leases granted.
    assert _version(reader.invoke(encode_get(3), read_only=True)) == 1
    grants = sum(
        host.replica.counters.get("lease_grants") for host in cluster.hosts.values()
    )
    assert grants > 0
    writer.invoke(encode_set(3, _value(2)))
    revoked = sum(
        host.replica.counters.get("lease_revokes")
        + host.replica.counters.get("leases_self_revoked")
        for host in cluster.hosts.values()
    )
    assert revoked > 0, "write committed without revoking the outstanding lease"
    assert _version(reader.invoke(encode_get(3), read_only=True)) == 2


def test_leases_die_on_view_change():
    """Crashing the primary invalidates every outstanding lease: no replica
    may keep a servable lease from the dead view, and reads after the view
    change still return the latest committed value."""
    cluster, _recorder = fast_cluster(9)
    writer = cluster.client("W")
    reader = cluster.client("RD")
    writer.invoke(encode_set(3, _value(4)))
    assert _version(reader.invoke(encode_get(3), read_only=True)) == 4
    held = [
        rid
        for rid, host in cluster.hosts.items()
        if host.replica.fast_path.lease is not None
    ]
    assert held, "no replica ever held a lease before the crash"
    cluster.crash("R0")
    # Drive a write through: it forces the view change to complete.
    assert writer.invoke(encode_set(3, _value(5)), timeout=30.0) == b"OK"
    for rid, host in cluster.hosts.items():
        if rid == "R0":
            continue
        replica = host.replica
        assert replica.view > 0, f"{rid} never left view 0"
        lease = replica.fast_path.lease
        assert lease is None or lease[0] == replica.view, (
            f"{rid} kept a lease from dead view {lease[0]} while in view "
            f"{replica.view}"
        )
    assert _version(reader.invoke(encode_get(3), read_only=True)) == 5


def test_leased_reads_refused_while_stale():
    """A lease holder that has not executed up to the granted seqno refuses
    to serve — the client then needs another replica or the ordered
    fallback, but never sees stale state.  Exercised by partitioning one
    lease holder away during writes, then reading."""
    cluster, _recorder = fast_cluster(21)
    writer = cluster.client("W")
    reader = cluster.client("RD")
    writer.invoke(encode_set(3, _value(7)))
    assert _version(reader.invoke(encode_get(3), read_only=True)) == 7
    # R2 misses the next writes (it keeps its old lease state).
    cluster.network.partition(("R0", "R1", "R3"), ("R2",))
    for version in (8, 9):
        assert writer.invoke(encode_set(3, _value(version)), timeout=30.0) == b"OK"
    cluster.heal()
    observed = _version(reader.invoke(encode_get(3), read_only=True, timeout=30.0))
    assert observed == 9, f"read returned stale version {observed}"
