"""Reads under faults: what clients observe, checked against the registers
they wrote.

Eight closed-loop clients; client ``i`` is the only writer of slot ``i`` and
writes versions 1, 2, 3, ...; each op is a seeded coin between the next SET
of its own slot and a read-only GET of a random slot.  A register with one
writer makes linearizability exact and O(1) per read: the version returned
is at least the writer's last *acknowledged* version when the read was
invoked, at most its last *issued* version when the read returned, and at
least what any read of that slot returned before this one was invoked.

A second check sits at the replicas: every read-only reply a replica sends
must equal what its *committed* history produces, for as long as that
history explains its state (one incarnation, no state transfer installed).

What the matrix missed, and why.  Until batching under pipelining moved the
timing, every cell was green over ``SEEDS`` while ``speculation`` /
``primary-recover`` returned a stale read to a correct client on 16 of seeds
0-299 (13, 24, 46, ...): a 5 % bug in one cell of 27 is seen by six seeds
about one time in four.  Only that cell reaches it.  It needs speculation
without leases (a new primary grants no lease until its pipeline has
drained, which hides it) and a view change that completes before the old
view's commits land — the *hand-off* a primary makes before a planned reboot
(~1 virtual ms), not a crash, whose view change waits out a 250 ms request
timer first.  The seeds that showed it are pinned below; when a cell's
outcome depends on timing, sweep it (``run`` over a few hundred seeds takes
half a minute) before believing six.
"""

from __future__ import annotations

import random

import pytest

from repro.bft.config import VARIANTS, BFTConfig
from repro.bft.messages import Prepare, Reply
from repro.bft.testing import encode_get, encode_set, recording_cluster
from repro.faults.injector import make_result_corruptor
from repro.faults.plant import READ_PLANTED_BUGS
from repro.net.network import NetworkConfig

CLIENTS = 8
# (virtual instant, what to do to the cluster); "lossy" is a link property.
FAULTS = {
    "none": [],
    "backup-crash-restart": [(0.01, lambda c: c.crash("R2")), (0.03, lambda c: c.restart("R2"))],
    "partition-heal": [
        (0.01, lambda c: c.network.partition(("R0", "R1", "R2"), ("R3",))),
        (0.03, lambda c: c.heal()),
    ],
    "primary-crash": [(0.01, lambda c: c.crash("R0"))],
    "recover": [(0.015, lambda c: c.recover("R1"))],
    "primary-recover": [(0.015, lambda c: c.recover("R0"))],
    "lossy": [],
    "lossy+primary-crash": [(0.01, lambda c: c.crash("R0"))],
    "backup-restart-then-primary-crash": [
        (0.005, lambda c: c.crash("R3")),
        (0.02, lambda c: c.restart("R3")),
        (0.04, lambda c: c.crash("R0")),
    ],
}
SEEDS = range(6)
WATCHED = ("leased_reads_served", "reads_parked", "spec_rollbacks", "new_views_sent")


def run(variant, fault, seed, plant=None, corrupt=None, ops_per_client=20):
    """One run under a ``VARIANTS`` row; returns (violations, cluster counters)."""
    net = NetworkConfig(drop_rate=0.02) if "lossy" in fault else None
    cluster, recorder = recording_cluster(
        config=BFTConfig(checkpoint_interval=8, log_window=16, **VARIANTS[variant].overrides),
        seed=seed,
        net_config=net,
    )
    clients = [cluster.client(f"C{index}") for index in range(CLIENTS)]
    ensure = READ_PLANTED_BUGS[plant](cluster) if plant else None
    if corrupt:
        make_result_corruptor(cluster.replica(corrupt))
    rng = random.Random(seed)
    issued, acked, read_floor = [0] * CLIENTS, [0] * CLIENTS, [0] * CLIENTS
    sets = {}  # op bytes -> (slot, value), to replay a replica's history
    reading = {}  # client id -> (reqid, slot) of its read in flight
    violations, done = [], []

    def step(index, number):
        client = clients[index]
        if number == ops_per_client:
            done.append(index)
        elif rng.random() < 0.5:
            issued[index] += 1
            version = issued[index]
            op = encode_set(index, b"%d" % version)
            sets[op] = (index, b"%d" % version)

            def on_set(result):
                acked[index] = version
                if result != b"OK":
                    violations.append(f"{client.node_id}: SET answered {result!r}")
                step(index, number + 1)

            client.invoke_async(op, on_set)
        else:
            slot = rng.randrange(CLIENTS)
            floor = max(acked[slot], read_floor[slot])

            def on_get(result):
                version = int(result) if result.isdigit() else 0 if result == b"" else -1
                if not floor <= version <= issued[slot]:
                    violations.append(
                        f"{client.node_id}: GET {slot} returned {result!r}, "
                        f"allowed versions {floor}..{issued[slot]}"
                    )
                read_floor[slot] = max(read_floor[slot], version)
                step(index, number + 1)

            reading[client.node_id] = (client.invoke_async(encode_get(slot), on_get, True), slot)

    def check_reply(src, dst, message):
        """A read-only reply leaving a replica against its committed history."""
        if isinstance(message, Reply) and message.read_only and src != corrupt:
            segments = recorder.history_segments[src]
            transfers = cluster.replica(src).counters.get("state_transfers_started")
            if len(segments) == 1 and not transfers and reading[dst][0] == message.reqid:
                slot = reading[dst][1]
                committed = segments[0][: recorder.committed_lengths(src)[0]]
                values = [sets[op][1] for _c, op in committed if sets.get(op, (None,))[0] == slot]
                if message.result != (values[-1] if values else b""):
                    violations.append(f"{src}: read-only reply {message.result!r} is not committed")
        return message

    cluster.network.add_interceptor(check_reply)
    for at, action in FAULTS[fault]:
        cluster.sim.schedule(at, lambda action=action: action(cluster))
    if ensure is not None:
        cluster.sim.add_step_hook(ensure)
    for index in range(CLIENTS):
        step(index, 0)
    if not cluster.sim.run_until_condition(lambda: len(done) == CLIENTS, timeout=120.0):
        violations.append(f"only {len(done)} of {CLIENTS} clients finished")
    return violations, cluster.total_counters()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_reads_are_fresh_under_faults(variant):
    seen = dict.fromkeys(WATCHED, 0)
    for fault in FAULTS:
        for seed in SEEDS:
            violations, counters = run(variant, fault, seed)
            assert violations == [], f"{variant} / {fault} / seed {seed}"
            if fault == "primary-recover":
                # The reboot found work in progress and handed the view over.
                assert counters.get("view_handoffs_sent") == 1
                assert counters.get("new_views_sent") > 0
            for name in WATCHED:
                seen[name] += counters.get(name)
    # Non-vacuity: the matrix reached the paths it is there to guard, as far
    # as the row turns them on.
    overrides = VARIANTS[variant].overrides
    assert seen["new_views_sent"] > 0
    if overrides:
        assert seen["reads_parked"] > 0
    if overrides.get("speculative_execution"):
        assert seen["spec_rollbacks"] > 0
    if overrides.get("read_leases"):
        assert seen["leased_reads_served"] > 0


def test_a_client_that_believes_the_first_read_reply_is_caught():
    assert run("fast-path", "none", 0, corrupt="R1")[0] == []
    violations, _counters = run("fast-path", "none", 0, plant="hasty-read-client", corrupt="R1")
    assert any("GET" in violation for violation in violations)


def test_a_replica_that_reads_through_open_frames_is_caught():
    """By the replica-level check, without leases.  With leases on the plant
    is masked: a replica drops its lease when it accepts the write proposal,
    before the frame opens, and the next lease's floor is that write."""
    violations, _counters = run("speculation", "none", 0, plant="reads-ignore-open-frames")
    assert any("is not committed" in violation for violation in violations)
    assert run("fast-path", "none", 0, plant="reads-ignore-open-frames")[0] == []


# -- found by a 300-seed sweep of speculation / primary-recover ---------------------------


@pytest.mark.parametrize("seed", [4, 13, 24, 46, 57])
def test_reads_wait_for_what_the_new_view_re_proposed(seed):
    """A write acknowledged at 2f+1 tentative replies is prepared at 2f+1
    replicas, so the NEW-VIEW re-proposes it — but adopting the view rolled
    its frame back, and the hand-off view change is over before O has
    re-committed.  For that window 2f+1 replicas in the new view had no open
    frame and answered a read from state that lacked the write (seed 13:
    ``GET 4 returned b'2', allowed versions 3..3``).  A replica now parks
    reads until it has executed up to the highest seqno in the O it adopted.
    Seeds 13, 24 and 46 showed it before the primary batched under
    pipelining; with that timing 4 and 57 are among the 15 of 300 that would."""
    violations, counters = run("speculation", "primary-recover", seed)
    assert violations == []
    assert counters.get("view_handoffs_sent") == 1


def test_a_replica_that_ignores_the_read_floor_is_caught():
    """By the client-side check: each reply is that replica's committed
    state, so the replica-level check has nothing to say."""
    violations, _counters = run(
        "speculation", "primary-recover", 4, plant="reads-ignore-view-floor"
    )
    assert any("GET 5 returned b'3'" in violation for violation in violations)
    assert not any("is not committed" in violation for violation in violations)


# -- found by the matrix above (fast-path / lossy+primary-crash / seed 4) ----------------


def test_batch_left_one_commit_short_does_not_stay_that_way():
    """One replica is down and another cannot prepare, so it votes no commit
    and ends up alone in a view change.  The two that did prepare have
    speculated the batch, answered tentatively and — speculation having taken
    the request out of their in-flight sets — stopped timing the primary:
    the client held two tentative replies of the three it needs and
    retransmitted for ever.  A retransmission of a tentatively answered
    request now puts it back under the request timer."""
    cluster, _recorder = recording_cluster(
        config=BFTConfig(
            checkpoint_interval=8, log_window=16, **VARIANTS["speculation"].overrides
        )
    )
    writer = cluster.client("W")
    assert writer.invoke(encode_set(1, b"1")) == b"OK"
    cluster.settle()
    cluster.crash("R3")
    cluster.network.add_interceptor(
        lambda src, dst, message: None
        if dst == "R1" and isinstance(message, Prepare) and message.view == 0
        else message
    )
    assert writer.invoke(encode_set(2, b"1"), timeout=30.0) == b"OK"
    assert [cluster.replica(r).view for r in ("R0", "R1", "R2")] == [1, 1, 1]
