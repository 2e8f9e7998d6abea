"""The claims made about the ``repro bench`` suites, as assertions.

``repro bench --compare`` holds each scenario to its committed numbers; these
tests hold the *ratios between* scenarios that the README and docs quote, by
running the registered scenarios themselves.
"""

from repro.bench.suites import SCENARIOS


def test_fast_path_is_at_least_3x():
    """Pipelining + speculation must beat the three-phase baseline by >= 3x
    on closed-loop KV throughput (committed figure: ~4.9x — batching under
    pipelining trades 5.5 % of this write-only loop's virtual rate for a third
    fewer messages)."""
    base = SCENARIOS["kv_throughput"]()["ops_per_vsec"]
    fast = SCENARIOS["kv_throughput_fast"]()["ops_per_vsec"]
    assert fast >= 3.0 * base, f"fast path {fast:.1f} vs baseline {base:.1f} ops/vsec"


def test_eight_shards_scale_goodput():
    """Aggregate goodput at 8 groups must beat the single group by >= 5x with
    no cross-shard traffic and >= 2.5x with a 10% transaction mix (committed
    figures: ~7.6x and ~7.3x)."""
    one = SCENARIOS["shard_scale_1"]()["goodput_per_vsec"]
    pure = SCENARIOS["shard_scale_8"]()["goodput_per_vsec"] / one
    mixed = SCENARIOS["shard_scale_8_mix10"]()["goodput_per_vsec"] / one
    assert pure >= 5.0 and mixed >= 2.5, f"{pure:.2f}x pure, {mixed:.2f}x at 10% mix"


def test_fused_tier_costs_at_most_half_a_replica_and_rebuilds_the_root():
    """One fused node spanning S groups must cost no more than half of one
    extra full replica per group (committed figure: ~0.42), and the state it
    rebuilds must match the destroyed group's checkpoint certificate."""
    assert SCENARIOS["fusion_overhead"]()["storage_ratio"] <= 0.5
    assert SCENARIOS["fusion_reconstruction"]()["root_match"] == 1.0


def test_fast_path_reads_never_fall_back_and_beats_the_slow_path_on_both_counts():
    """On mixed traffic a read the fast path cannot answer on arrival is
    parked at the replica, so none times out into an ordered request; and
    with the primary batching what arrives while two instances are forming
    (docs/performance.md, "Batching under pipelining") the fast path is
    ahead of the slow path in virtual throughput *and* in messages for the
    same 800 ops (committed figures: 7337 against 5061 ops/vsec, 7874
    against 11103 messages)."""
    slow = SCENARIOS["kv_mixed"]()
    fast = SCENARIOS["kv_mixed_fast"]()
    assert fast["read_only_fallbacks"] == 0
    assert fast["leased_reads_served"] > 0 and fast["reads_parked"] > 0
    assert fast["ops"] == slow["ops"]
    assert fast["messages_sent"] < slow["messages_sent"], (
        f"fast path {fast['messages_sent']} vs slow path {slow['messages_sent']} messages"
    )
    assert fast["ops_per_vsec"] >= slow["ops_per_vsec"], (
        f"fast path {fast['ops_per_vsec']:.1f} vs slow path {slow['ops_per_vsec']:.1f} ops/vsec"
    )
