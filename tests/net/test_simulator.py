"""Discrete-event simulator: ordering, cancellation, determinism."""

import pytest

from repro.net.simulator import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, lambda: fired.append("c"))
    sim.schedule(0.1, lambda: fired.append("a"))
    sim.schedule(0.2, lambda: fired.append("b"))
    sim.run_until_idle()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for name in "abc":
        sim.schedule(1.0, lambda n=name: fired.append(n))
    sim.run_until_idle()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now()))
    sim.run_until_idle()
    assert seen == [2.5]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.1, lambda: fired.append(1))
    handle.cancel()
    sim.run_until_idle()
    assert fired == []


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-1, lambda: None)


def test_run_until_stops_at_deadline():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(3.0, lambda: fired.append(3))
    sim.run_until(2.0)
    assert fired == [1]
    assert sim.now() == 2.0
    sim.run_until_idle()
    assert fired == [1, 3]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.1, lambda: fired.append("inner"))

    sim.schedule(0.1, outer)
    sim.run_until_idle()
    assert fired == ["outer", "inner"]


def test_run_until_condition():
    sim = Simulator()
    box = []
    sim.schedule(0.5, lambda: box.append(1))
    assert sim.run_until_condition(lambda: bool(box), timeout=1.0)
    assert sim.now() <= 1.0


def test_run_until_condition_timeout():
    sim = Simulator()

    def reschedule():
        sim.schedule(0.1, reschedule)

    sim.schedule(0.1, reschedule)
    assert not sim.run_until_condition(lambda: False, timeout=1.0)


def test_run_until_condition_out_of_events_raises():
    """Spending ``max_events`` is not a timeout: no virtual time passed here."""
    sim = Simulator()

    def spin():
        sim.schedule(0.0, spin)

    sim.schedule(0.0, spin)
    with pytest.raises(RuntimeError, match="did not quiesce within 100 events"):
        sim.run_until_condition(lambda: False, timeout=60.0, max_events=100)
    assert sim.now() == 0.0


def test_determinism_same_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        order = []
        for i in range(20):
            sim.schedule(sim.rng.random(), lambda i=i: order.append(i))
        sim.run_until_idle()
        return order

    assert run(7) == run(7)
    assert run(7) != run(8)


# -- cancelled-event compaction (heap growth regression) --------------------------


def test_cancelled_events_are_compacted_out_of_the_heap():
    """Cancel churn must not grow the heap without bound: once enough
    cancelled entries accumulate the queue compacts down to live events."""
    sim = Simulator()
    keeper = sim.schedule(1e6, lambda: None)
    for _ in range(50):
        handles = [sim.schedule(10.0, lambda: None) for _ in range(100)]
        for handle in handles:
            handle.cancel()
    assert sim.pending_events() == 1
    # 5000 cancelled handles went through; the heap must have been compacted
    # well below that (threshold is small), not retain every tombstone.
    assert len(sim._queue) < 200
    assert not keeper.cancelled


def test_compaction_preserves_order_and_behavior():
    sim = Simulator(seed=5)
    fired = []
    live = []
    for i in range(300):
        handle = sim.schedule(1.0 + i * 0.001, lambda i=i: fired.append(i))
        if i % 3 == 0:
            live.append(i)
        else:
            handle.cancel()
    sim.run_until_idle()
    assert fired == live


def test_pop_skips_cancelled_and_counts_stay_consistent():
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    a.cancel()
    assert sim.pending_events() == 1
    sim.run_until_idle()
    assert sim.pending_events() == 0
    assert sim.events_processed == 1


# -- bounded tie-break shuffle ------------------------------------------------------


def test_tiebreak_shuffle_only_reorders_equal_times():
    import random as random_mod

    sim = Simulator()
    sim.set_tiebreak(random_mod.Random(3), window=4)
    fired = []
    for i in range(6):
        sim.schedule(1.0, lambda i=i: fired.append(("tie", i)))
    sim.schedule(2.0, lambda: fired.append(("late", 0)))
    sim.run_until_idle()
    # All tied events still run before the later one ...
    assert fired[-1] == ("late", 0)
    # ... and all of them run exactly once.
    assert sorted(fired[:-1]) == [("tie", i) for i in range(6)]


def test_tiebreak_shuffle_is_seed_deterministic():
    import random as random_mod

    def run(seed):
        sim = Simulator()
        sim.set_tiebreak(random_mod.Random(seed), window=4)
        fired = []
        for i in range(8):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run_until_idle()
        return fired

    assert run(9) == run(9)
    assert run(9) != list(range(8)) or run(10) != list(range(8))


def test_no_tiebreak_keeps_insertion_order():
    sim = Simulator()
    fired = []
    for i in range(8):
        sim.schedule(1.0, lambda i=i: fired.append(i))
    sim.run_until_idle()
    assert fired == list(range(8))
