"""A replica whose service dies stops where it died.

When the wrapped implementation raises ``FaultInjected`` the replica crashes
(``crash_self``).  The batch it was running never finished, so the replica
must not count it executed, must not checkpoint the partial state, and must
run nothing after it: no later batch, no proposal, no reply.
"""

from repro.bft.config import BFTConfig
from repro.bft.messages import PrePrepare, Request
from repro.bft.testing import encode_set, recording_cluster
from repro.faults import POISON


def _cluster(**fields):
    poisoned = set()
    config = BFTConfig(checkpoint_interval=8, log_window=32, **fields)
    cluster, _recorder = recording_cluster(config=config, poisoned=poisoned)
    return cluster, poisoned


def _state(replica):
    return (
        replica.last_executed,
        replica.next_seqno,
        sorted(replica.own_checkpoints),
        replica.counters.snapshot(),
    )


def _freeze_at_crash(replica):
    """The replica's state at the instant it crashed, filled in by the hook."""
    at_crash = []
    replica.on_crashed = lambda _reason, _seqno: at_crash.append(_state(replica))
    return at_crash


def test_a_crash_mid_batch_at_a_checkpoint_boundary_stops_execution():
    cluster, poisoned = _cluster()
    client = cluster.client("C0")
    for i in range(7):
        client.invoke(encode_set(i, bytes([i])))
    cluster.settle(0.5)
    replica = cluster.replica("R2")
    assert replica.last_executed == 7
    at_crash = _freeze_at_crash(replica)
    poisoned.add("R2")

    def batch(seqno, *ops):
        requests = [
            Request(client_id=cluster.client(f"X{seqno}-{i}").node_id, reqid=1, op=op)
            for i, op in enumerate(ops)
        ]
        return PrePrepare(view=0, seqno=seqno, requests=requests, nondet=b"", primary_id="R0")

    # Seqno 8 is a checkpoint boundary; its second request kills the service.
    replica.committed[8] = batch(8, encode_set(8, b"a"), encode_set(9, POISON), encode_set(10, b"b"))
    replica.committed[9] = batch(9, encode_set(11, b"c"))
    executed = replica.counters.get("requests_executed")
    replica.execute_ready()

    assert replica.crash_seqno == 8
    assert replica.last_executed == 7
    assert 8 not in replica.own_checkpoints
    assert replica.counters.get("requests_executed") == executed + 1  # X8-0 only
    assert replica.service.manager.last_recorded("X8-2") is None
    assert replica.service.manager.last_recorded("X9-0") is None
    assert at_crash == [_state(replica)]


def test_a_crash_while_speculating_stops_the_primary():
    """The speculation loop runs batches through the same ``_execute_batch``;
    a primary that dies there proposes nothing more, though requests are
    still queued behind the batch it died in."""
    cluster, poisoned = _cluster(pipeline_depth=8, speculative_execution=True)
    cluster.client("C0").invoke(encode_set(0, b"warm"))
    cluster.settle(0.5)
    primary = cluster.replica("R0")
    at_crash = _freeze_at_crash(primary)
    poisoned.add("R0")
    cluster.client("P").invoke_async(encode_set(9, POISON), lambda _reply: None)
    for i in range(12):
        cluster.client(f"B{i}").invoke_async(encode_set(12 + i % 8, bytes([i])), lambda _reply: None)
    cluster.settle(1.0)

    assert primary.crash_seqno == 2
    assert primary.counters.get("spec_batches") > 0
    assert primary.pending  # what it would have proposed next
    assert at_crash == [_state(primary)]
