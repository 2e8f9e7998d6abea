"""The send -> schedule -> deliver hop: byte accounting, what a bandwidth
cap serialises, and the exact delivery schedule for a seed.

``TRACE_SEED0`` and ``LOSSY_SEED0_SHA256`` were recorded before the hop was
tightened.  Every latency is ``delay + jitter draw`` off the simulator's one
seeded RNG, so an extra, missing or reordered draw anywhere in
``Network.send`` moves every later entry.
"""

import hashlib

from repro.bft.messages import PrePrepare, Request
from repro.crypto.auth import Authenticator
from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator

NODES = ["R0", "R1", "R2", "R3"]


def ping_pong_trace(config, prepare=lambda net: None):
    """Every node pings every other; each ping is answered with a pong.
    Returns (simulator, network, [(time, src, dst, message), ...])."""
    sim = Simulator(seed=0)
    net = Network(sim, config)
    prepare(net)
    log = []

    def handler(node_id):
        def on_message(message, src):
            log.append((sim.now(), src, node_id, message))
            if message.startswith("ping"):
                net.send(node_id, src, "pong" + message[4:])

        return on_message

    for node_id in NODES:
        net.register(node_id, handler(node_id))
    for round_no, src in enumerate(NODES):
        net.multicast(src, NODES, f"ping-{round_no}")
    sim.run_until_idle()
    return sim, net, log


TRACE_SEED0 = [
    (0.0005258916750292964, "R1", "R0", "ping-1"),
    (0.0005303312726078927, "R2", "R1", "ping-2"),
    (0.0005404934137450414, "R1", "R3", "ping-1"),
    (0.0005420571580830845, "R0", "R3", "ping-0"),
    (0.0005476596954152356, "R2", "R3", "ping-2"),
    (0.0005504686855817391, "R3", "R2", "ping-3"),
    (0.0005511274721368609, "R1", "R2", "ping-1"),
    (0.0005583382039455031, "R3", "R0", "ping-3"),
    (0.0005757954402940302, "R0", "R2", "ping-0"),
    (0.0005783798589034773, "R2", "R0", "ping-2"),
    (0.0005844421851525048, "R0", "R1", "ping-0"),
    (0.0005908112885195336, "R3", "R1", "ping-3"),
    (0.0010540754594692667, "R0", "R1", "pong-1"),
    (0.0010671077922193286, "R3", "R0", "pong-0"),
    (0.0011023303134125746, "R3", "R1", "pong-1"),
    (0.0011059116930236153, "R1", "R2", "pong-2"),
    (0.0011068101972259636, "R2", "R0", "pong-0"),
    (0.0011321491957365197, "R2", "R1", "pong-1"),
    (0.0011386343210120597, "R3", "R2", "pong-2"),
    (0.0011485547989894614, "R0", "R3", "pong-3"),
    (0.0011487472331855044, "R2", "R3", "pong-3"),
    (0.00115136303372949, "R0", "R2", "pong-2"),
    (0.0011592096817110778, "R1", "R3", "pong-3"),
    (0.0011743260139493042, "R1", "R0", "pong-0"),
]
LOSSY_SEED0_SHA256 = "99cab77b45f5f1913c4a365ac92bb0324c12ce148633338c78c2e8db2816f8cf"


def test_delivery_schedule_for_seed_0_with_empty_fault_tables():
    sim, net, log = ping_pong_trace(NetworkConfig())
    assert log == TRACE_SEED0
    assert sim.now() == TRACE_SEED0[-1][0]
    assert sim.events_processed == 24
    assert dict(net.counters) == {
        "bytes_sent": 24 * 64,
        "messages_delivered": 24,
        "messages_sent": 24,
    }


def test_tables_that_were_filled_and_emptied_again_change_nothing():
    def fill_and_empty(net):
        net.partition(["R0", "R1"], ["R2", "R3"])
        net.heal_partition()
        net.cut_links([("R0", "R1")])
        net.restore_links([("R0", "R1")])
        net.add_interceptor(lambda src, dst, message: None)()

    assert ping_pong_trace(NetworkConfig(), fill_and_empty)[2] == TRACE_SEED0


def test_pass_through_interceptor_and_unrelated_cut_change_nothing():
    def install(net):
        net.register("X", lambda message, src: None)
        net.partition(["X"], ["R0"])  # R1-R3 stay unlisted
        net.cut_links([("X", "R1")])
        net.add_interceptor(lambda src, dst, message: message)

    _sim, _net, log = ping_pong_trace(NetworkConfig(), install)
    assert log == TRACE_SEED0


def test_loss_is_drawn_before_jitter():
    _sim, net, log = ping_pong_trace(NetworkConfig(drop_rate=0.25))
    assert net.counters.get("messages_dropped_loss") == 2
    assert len(log) == 22
    assert hashlib.sha256(repr(log).encode()).hexdigest() == LOSSY_SEED0_SHA256


def _pre_prepare():
    requests = [Request(client_id=f"C{i}", reqid=i, op=b"op" * i) for i in range(1, 4)]
    return PrePrepare(view=0, seqno=1, requests=requests, nondet=b"nd", primary_id="R0", sig=b"s" * 32)


def test_multicast_charges_wire_size_per_recipient():
    sim = Simulator(seed=0)
    net = Network(sim)
    got = []
    for node_id in NODES:
        net.register(node_id, lambda message, src, dst=node_id: got.append((dst, message)))
    message = _pre_prepare()
    net.multicast("R0", NODES, message)
    sim.run_until_idle()
    assert net.counters.get("messages_sent") == 3
    assert net.counters.get("bytes_sent") == 3 * message.wire_size()
    assert sorted(dst for dst, _m in got) == ["R1", "R2", "R3"]
    assert all(delivered is message for _dst, delivered in got)


class Sized:
    def __init__(self, size):
        self.size = size

    def wire_size(self):
        return self.size


def test_bandwidth_cap_serialises_the_message_an_interceptor_substituted():
    sim = Simulator(seed=0)
    net = Network(sim, NetworkConfig(delay=0.001, jitter=0.0, bandwidth=1000.0))
    arrivals = []
    net.register("A", lambda message, src: None)
    net.register("B", lambda message, src: arrivals.append((sim.now(), message.size)))
    net.add_interceptor(lambda src, dst, message: Sized(500) if message.size == 100 else message)
    net.send("A", "B", Sized(100))  # replaced: 0.5 vs on the link, not 0.1
    net.send("A", "B", Sized(200))  # queues behind the replacement
    sim.run_until_idle()
    assert arrivals == [(0.501, 500), (0.701, 200)]
    # bytes_sent is what the sender handed over, before interception.
    assert net.counters.get("bytes_sent") == 300


def test_per_pair_override_applies_only_to_its_link():
    sim = Simulator(seed=0)
    net = Network(sim, NetworkConfig(delay=0.001, jitter=0.0))
    arrivals = []
    for node_id in ("A", "B", "C"):
        net.register(node_id, lambda message, src, dst=node_id: arrivals.append((sim.now(), dst)))
    net.set_link("A", "C", NetworkConfig(delay=0.25, jitter=0.0))
    net.multicast("A", ["B", "C"], "m")
    sim.run_until_idle()
    assert arrivals == [(0.001, "B"), (0.25, "C")]


def _unicast_charge(message):
    sim = Simulator(seed=0)
    net = Network(sim)
    for node_id in NODES:
        net.register(node_id, lambda message, src: None)
    net.send("R0", "R1", message)
    return net.counters.get("bytes_sent")


def test_each_multicast_recipient_is_charged_what_a_unicast_is():
    authed = _pre_prepare()
    authed.auth = Authenticator(sender="R0", tags={rid: (0, b"t" * 8) for rid in NODES})
    for message in (_pre_prepare(), authed, Sized(77), "plain"):
        sim = Simulator(seed=0)
        net = Network(sim)
        for node_id in NODES:
            net.register(node_id, lambda message, src: None)
        net.multicast("R1", NODES, message)
        assert net.counters.get("bytes_sent") == 3 * _unicast_charge(message)


def test_an_empty_multicast_neither_sizes_nor_freezes_its_message():
    sim = Simulator(seed=0)
    net = Network(sim)
    for node_id in NODES:
        net.register(node_id, lambda message, src: None)
    message = _pre_prepare()
    net.multicast("R0", [], message)
    net.multicast("R0", ["R0"], message)
    assert "_signable" not in message.__dict__
    message.view = 1  # still assignable: nothing froze it
    assert dict(net.counters) == {}


def test_a_capped_multicast_sizes_again_what_an_interceptor_replaced():
    sim = Simulator(seed=0)
    net = Network(sim, NetworkConfig(delay=0.001, jitter=0.0, bandwidth=1000.0))
    arrivals = []
    for node_id in ("A", "B", "C"):
        net.register(node_id, lambda message, src, dst=node_id: arrivals.append((sim.now(), dst, message.size)))
    net.add_interceptor(lambda src, dst, message: Sized(500) if dst == "B" else message)
    net.multicast("A", ["A", "B", "C"], Sized(100))
    sim.run_until_idle()
    assert arrivals == [(0.101, "C", 100), (0.501, "B", 500)]
    assert net.counters.get("bytes_sent") == 200
