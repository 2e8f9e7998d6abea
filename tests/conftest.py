"""Shared test helpers: quick cluster construction over the KV service, a
guard that fails any test in which a stopped node still acts, and the
hypothesis profiles."""

import pytest
from hypothesis import settings

from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.bft.messages import Checkpoint
from repro.bft.replica import Replica
from repro.bft.testing import kv_cluster  # re-exported for test modules
from repro.net.node import Node

#: Hypothesis draws the same examples on every run of the suite, so its
#: verdict on a commit does not depend on the draw; a test's own
#: ``max_examples`` still sets how many.  ``--hypothesis-profile=random``
#: (with ``--hypothesis-seed=N`` to repeat one) searches fresh draws instead.
settings.register_profile("repeatable", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("repeatable")

#: (node id, method) for each send, multicast or batch execution by a stopped
#: node since the current test's setup began.  ``Node`` drops such a send
#: silently; a test that makes one on purpose checks this list and clears it.
STOPPED_NODE_EVENTS = []


def _flag_when_stopped(cls, name):
    method = getattr(cls, name)

    def flagged(self, *args, **kwargs):
        if self._stopped:
            STOPPED_NODE_EVENTS.append((self.node_id, name))
        return method(self, *args, **kwargs)

    setattr(cls, name, flagged)


for _cls, _name in ((Node, "send"), (Node, "multicast"), (Replica, "_execute_batch")):
    _flag_when_stopped(_cls, _name)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    STOPPED_NODE_EVENTS.clear()
    return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    result = yield
    if STOPPED_NODE_EVENTS:
        pytest.fail(f"a stopped node sent or executed: {STOPPED_NODE_EVENTS}")
    return result


def config_for(f: int) -> BFTConfig:
    """The smallest group tolerating ``f`` faults (n = 3f + 1).  Threshold
    tests run at f=1 and f=2: a bound written as its f=1 number passes at
    f=1 only."""
    return BFTConfig(replica_ids=[f"R{i}" for i in range(3 * f + 1)], f=f)


def signed_checkpoint(cluster: Cluster, replica_id, seqno=16, state_digest=b"\x01" * 32):
    """``replica_id``'s validly signed vote for a checkpoint nobody took."""
    checkpoint = Checkpoint(seqno=seqno, state_digest=state_digest, replica_id=replica_id)
    checkpoint.sig = cluster.sigs.keygen(replica_id).sign(checkpoint.signable_bytes())
    return checkpoint


def kv_states(cluster: Cluster):
    """Concatenated cell contents per replica (for convergence asserts)."""
    return {
        replica_id: b"\x1f".join(cluster.service(replica_id).cells)
        for replica_id in cluster.hosts
    }


def assert_converged(cluster: Cluster) -> None:
    states = kv_states(cluster)
    assert len(set(states.values())) == 1, f"replica states diverged: { {k: v[:40] for k, v in states.items()} }"
