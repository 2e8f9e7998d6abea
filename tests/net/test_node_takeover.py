"""Node identity takeover: the reboot mechanism at the network layer."""

import pytest

from repro.net.network import Network, NetworkConfig
from repro.net.node import Node
from repro.net.simulator import Simulator


class Recorder(Node):
    def __init__(self, node_id, sim, network, takeover=False):
        super().__init__(node_id, sim, network, takeover=takeover)
        self.received = []

    def on_message(self, message, src):
        self.received.append((src, message))


@pytest.fixture
def rig():
    sim = Simulator(seed=1)
    net = Network(sim, NetworkConfig(delay=0.001, jitter=0.0))
    return sim, net


def test_takeover_redirects_delivery(rig):
    sim, net = rig
    first = Recorder("A", sim, net)
    other = Recorder("B", sim, net)
    other.send("A", "to-first")
    sim.run_until_idle()
    assert first.received == [("B", "to-first")]

    second = Recorder("A", sim, net, takeover=True)
    other.send("A", "to-second")
    sim.run_until_idle()
    assert second.received == [("B", "to-second")]
    assert first.received == [("B", "to-first")]  # old instance sees nothing


def test_takeover_of_unknown_id_rejected(rig):
    sim, net = rig
    with pytest.raises(KeyError):
        Recorder("ghost", sim, net, takeover=True)


def test_old_instance_timers_do_not_fire_after_takeover(rig):
    sim, net = rig
    first = Recorder("A", sim, net)
    fired = []
    first.set_timer(0.5, lambda: fired.append("old"))
    first.stop()
    second = Recorder("A", sim, net, takeover=True)
    second.set_timer(0.5, lambda: fired.append("new"))
    sim.run_until_idle()
    assert fired == ["new"]


def test_old_instance_cannot_send_after_stop(rig):
    sim, net = rig
    first = Recorder("A", sim, net)
    target = Recorder("B", sim, net)
    first.stop()
    Recorder("A", sim, net, takeover=True)
    first.send("B", "zombie")
    sim.run_until_idle()
    assert target.received == []


# -- timer bookkeeping: O(live), never O(timers ever set) -------------------------


class _CountingDict(dict):
    """Counts whole-table walks, to show ``set_timer`` never makes one."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def test_fired_timers_leave_the_node_and_set_timer_never_scans(rig):
    sim, net = rig
    node = Recorder("A", sim, net)
    node._timers = _CountingDict()
    fired = []
    high_water = 0
    for i in range(10_000):
        node.set_timer(0.001, lambda i=i: fired.append(i))
        if i % 4 == 3:
            sim.run_until_idle()  # let the batch fire
        high_water = max(high_water, len(node._timers))
    sim.run_until_idle()
    assert fired == list(range(10_000))
    assert high_water <= 4 and len(node._timers) == 0
    assert node._timers.walks == 0


def test_cancelled_timers_leave_the_node(rig):
    sim, net = rig
    node = Recorder("A", sim, net)
    handles = [node.set_timer(1.0, lambda: None) for _ in range(100)]
    for handle in handles[:60]:
        handle.cancel()
    assert list(node._timers) == handles[60:]


def test_stop_silences_every_pending_timer(rig):
    sim, net = rig
    node = Recorder("A", sim, net)
    fired = []
    for i in range(50):
        node.set_timer(0.1 + i * 0.01, lambda i=i: fired.append(i))
    sim.run_until(0.2)  # some fire, the rest are pending
    assert fired and len(fired) < 50
    seen = list(fired)
    node.stop()
    assert len(node._timers) == 0
    sim.run_until_idle()
    assert fired == seen
    assert sim.pending_events() == 0


def test_cancelling_a_fired_handle_is_not_heap_garbage(rig):
    sim, net = rig
    node = Recorder("A", sim, net)
    fired_handles = [node.set_timer(0.001, lambda: None) for _ in range(200)]
    plain = sim.schedule(0.001, lambda: None)
    sim.schedule(1e6, lambda: None)  # keeps the queue non-empty
    sim.run_until(1.0)
    before = sim._cancelled
    for handle in fired_handles + [plain]:
        handle.cancel()
    assert sim._cancelled == before == 0
    node.stop()  # nothing pending: nothing to cancel either
    assert sim._cancelled == 0
    pending = node.set_timer(5.0, lambda: None)
    pending.cancel()
    pending.cancel()
    assert sim._cancelled == 1
