"""Integration: normal-case ordering, execution, checkpoints, batching."""

import pytest

from repro.bft.config import BFTConfig
from repro.bft.testing import encode_append, encode_get, encode_set

from tests.conftest import assert_converged, kv_cluster


def test_single_write_and_read():
    cluster = kv_cluster()
    client = cluster.client("C0")
    assert client.invoke(encode_set(3, b"hello")) == b"OK"
    assert client.invoke(encode_get(3)) == b"hello"


def test_all_replicas_execute(benchmarkless_settle=1.0):
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke(encode_set(0, b"x"))
    cluster.settle()
    assert [r.last_executed for r in cluster.replicas] == [1, 1, 1, 1]
    assert_converged(cluster)


def test_sequential_writes_converge():
    cluster = kv_cluster()
    client = cluster.client("C0")
    for i in range(30):
        assert client.invoke(encode_set(i % 8, bytes([i]))) == b"OK"
    cluster.settle()
    assert_converged(cluster)


def test_append_order_is_total():
    cluster = kv_cluster()
    clients = [cluster.client(f"C{i}") for i in range(3)]
    # Interleave async appends from three clients.
    done = []
    for round_number in range(5):
        for client in clients:
            client.invoke_async(
                encode_append(0, client.node_id.encode() + b";"), done.append
            )
        cluster.sim.run_until_condition(lambda: len(done) >= (round_number + 1) * 3, timeout=30)
    cluster.settle()
    assert_converged(cluster)
    value = cluster.service("R0").cells[0]
    assert value.count(b";") == 15


def test_read_only_optimization_used():
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke(encode_set(1, b"ro"))
    result = client.invoke(encode_get(1), read_only=True)
    assert result == b"ro"
    cluster.settle()
    # Read-only requests never enter the ordering pipeline.
    assert all(r.last_executed == 1 for r in cluster.replicas)
    assert sum(r.counters.get("read_only_executed") for r in cluster.replicas) >= 3


def test_checkpoints_stabilize_and_gc():
    config = BFTConfig(checkpoint_interval=8, log_window=16)
    cluster = kv_cluster(config=config)
    client = cluster.client("C0")
    for i in range(20):
        client.invoke(encode_set(i % 4, bytes([i])))
    cluster.settle()
    for replica in cluster.replicas:
        assert replica.stable_seqno >= 16
        assert len(replica.log) <= config.log_window + 1
        service = cluster.service(replica.node_id)
        assert all(s >= replica.stable_seqno for s in service.manager.checkpoint_seqnos())


def test_batching_under_concurrency():
    cluster = kv_cluster()
    clients = [cluster.client(f"C{i}") for i in range(6)]
    done = []
    for client in clients:
        client.invoke_async(encode_set(1, client.node_id.encode()), done.append)
    cluster.sim.run_until_condition(lambda: len(done) == 6, timeout=30)
    primary = cluster.replica("R0")
    # 6 concurrent requests should need fewer than 6 pre-prepares.
    assert primary.counters.get("pre_prepares_sent") < 6
    assert primary.counters.get("batched_requests") == 6


def test_duplicate_request_not_reexecuted():
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke(encode_append(0, b"x"))
    # Force a retransmission of an already-executed request.
    request = None
    client._reqid -= 1  # reuse the same reqid
    result = client.invoke(encode_append(0, b"x"))
    cluster.settle()
    # The append must have been applied exactly once per reqid accepted.
    assert cluster.service("R0").cells[0] == b"x"


def test_client_rejects_second_inflight_invoke():
    cluster = kv_cluster()
    client = cluster.client("C0")
    client.invoke_async(encode_set(0, b"a"), lambda r: None)
    with pytest.raises(Exception):
        client.invoke_async(encode_set(0, b"b"), lambda r: None)


def test_states_identical_under_packet_loss():
    from repro.net.network import NetworkConfig

    def factory_for(replica_id):
        from repro.bft.testing import KVStateMachine

        return lambda disk: KVStateMachine(num_slots=32)

    from repro.bft.cluster import Cluster

    cluster = Cluster(
        factory_for,
        net_config=NetworkConfig(delay=0.0005, jitter=0.0005, drop_rate=0.05),
        seed=3,
    )
    client = cluster.client("C0")
    for i in range(25):
        assert client.invoke(encode_set(i % 8, bytes([i])), timeout=120) == b"OK"
    cluster.settle(3.0)
    states = {
        rid: b"\x1f".join(cluster.service(rid).cells) for rid in cluster.hosts
    }
    # Under loss some replica may lag; at least a quorum must agree.
    from collections import Counter

    counts = Counter(states.values())
    assert counts.most_common(1)[0][1] >= 3
