"""Network-level fuzzing: duplication, delay, and reordering of protocol
messages must never break safety (UDP semantics — the protocol is built for
them)."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.testing import encode_get, encode_set, kv_cluster

from tests.conftest import Cluster  # noqa: F401


def test_duplicate_every_message():
    """Deliver every protocol message twice."""
    cluster = kv_cluster(seed=4)

    def duplicate(src, dst, message):
        # Schedule a second delivery slightly later (same object: receivers
        # must be idempotent).
        cluster.sim.schedule(0.002, lambda: cluster.network._deliver(src, dst, message))
        return message

    cluster.network.add_interceptor(duplicate)
    client = cluster.client("C0")
    for i in range(15):
        assert client.invoke(encode_set(i % 4, bytes([i])), timeout=60) == b"OK"
    cluster.settle(2.0)
    assert len({r.last_executed for r in cluster.replicas}) == 1
    states = {rid: tuple(cluster.service(rid).cells) for rid in cluster.hosts}
    assert len(set(states.values())) == 1
    # Dedup: appends applied exactly once despite duplicate deliveries.
    assert client.invoke(encode_get(0), timeout=60) == bytes([12])


def test_random_delay_reordering():
    """Random extra delays reorder messages arbitrarily."""
    cluster = kv_cluster(seed=5)

    def jitter(src, dst, message):
        if cluster.sim.rng.random() < 0.3:
            delay = cluster.sim.rng.uniform(0.001, 0.02)
            cluster.sim.schedule(
                delay, lambda: cluster.network._deliver(src, dst, message)
            )
            return None  # swallowed now, delivered later
        return message

    cluster.network.add_interceptor(jitter)
    client = cluster.client("C0")
    from repro.bft.testing import encode_append

    for i in range(12):
        client.invoke(encode_append(0, bytes([i])), timeout=60)
    cluster.settle(3.0)
    expected = bytes(range(12))
    values = {cluster.service(rid).cells[0] for rid in cluster.hosts}
    assert values == {expected}


def test_duplication_and_loss_together():
    from repro.net.network import NetworkConfig
    from repro.bft.testing import KVStateMachine

    cluster = Cluster(
        lambda rid: (lambda disk: KVStateMachine(num_slots=16)),
        config=BFTConfig(checkpoint_interval=8, log_window=16),
        net_config=NetworkConfig(delay=0.0005, jitter=0.001, drop_rate=0.05),
        seed=6,
    )

    def sometimes_duplicate(src, dst, message):
        if cluster.sim.rng.random() < 0.2:
            cluster.sim.schedule(
                0.003, lambda: cluster.network._deliver(src, dst, message)
            )
        return message

    cluster.network.add_interceptor(sometimes_duplicate)
    client = cluster.client("C0")
    for i in range(20):
        assert client.invoke(encode_set(i % 4, bytes([i])), timeout=120) == b"OK"
    cluster.settle(3.0)
    states = {rid: tuple(cluster.service(rid).cells) for rid in cluster.hosts}
    assert len(set(states.values())) == 1
