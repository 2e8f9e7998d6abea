"""Chaos: packet loss + proactive recovery + crashes + churn, seeded and
repeatable.  The invariant under everything ≤ f at a time: clients that get
answers get *correct* answers, and correct replicas converge.  The runs are
additionally watched live by the ``repro.explore`` oracle suite — every
safety property is checked continuously while the chaos unfolds, not just at
the end."""

import pytest

from repro.bft.client import InvocationTimeout
from repro.bft.config import BFTConfig
from repro.bft.testing import encode_get, encode_set, recording_cluster
from repro.explore.interpreter import DEPLOYMENTS, SINGLE
from repro.explore.oracles import OracleSuite
from repro.net.network import NetworkConfig


def chaos_cluster(seed):
    return recording_cluster(
        config=BFTConfig(checkpoint_interval=8, log_window=16, recovery_period=3.0),
        net_config=NetworkConfig(delay=0.0005, jitter=0.0005, drop_rate=0.03),
        seed=seed,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaos_run_converges(seed):
    cluster, recorder = chaos_cluster(seed)
    suite = OracleSuite(cluster, [recorder], DEPLOYMENTS[SINGLE].oracles, check_interval=20)
    suite.install()
    cluster.start_proactive_recovery()
    client = cluster.client("C0")
    model = {}  # the linearized expectation, updated on acknowledged writes

    completed = 0
    for i in range(60):
        slot = i % 8
        value = bytes([seed, i % 251])
        try:
            reply = client.invoke(encode_set(slot, value), timeout=20)
            if reply == b"OK":
                model[slot] = value
                completed += 1
        except InvocationTimeout:
            client.cancel()
        if i % 10 == 9:
            cluster.sim.run_for(0.3)

    assert completed >= 50  # loss hurts latency, not availability
    cluster.settle(8.0)
    suite.check_now()
    assert suite.violations == []

    # Reads reflect every acknowledged write.
    for slot, expected in sorted(model.items()):
        assert client.invoke(encode_get(slot), timeout=30) == expected

    # All correct (non-mid-recovery) replicas share one state.
    states = {
        rid: b"\x1f".join(cluster.service(rid).cells)
        for rid, host in cluster.hosts.items()
        if not host.replica.recovering
    }
    assert len(set(states.values())) == 1, f"seed {seed} diverged"


def test_chaos_is_deterministic():
    """Same seed, same chaos: byte-identical outcomes across runs."""

    def run(seed):
        cluster, _recorder = chaos_cluster(seed)
        cluster.start_proactive_recovery()
        client = cluster.client("C0")
        outcomes = []
        for i in range(25):
            try:
                outcomes.append(client.invoke(encode_set(i % 4, bytes([i])), timeout=20))
            except InvocationTimeout:
                client.cancel()
                outcomes.append(b"TIMEOUT")
        cluster.settle(2.0)
        return outcomes, cluster.sim.events_processed

    assert run(7) == run(7)
