"""E20 — graceful degradation under overload (the load ladder).

An open-loop swarm offers 0.8x, 2x, and 6x the sustainable request rate
against bandwidth-capped links.  The shape that matters: goodput (requests
the primary executes) tracks the offered rate below saturation and
*plateaus* past it, the admission queue sheds the excess with authenticated
``Busy`` hints, and the view number never moves — overload is absorbed by
shedding, not by electing a new primary that would inherit the same queue.
"""

from repro.bench.metrics import ExperimentTable
from repro.bench.suites import OVERLOAD_LADDER, overload_rung
from repro.explore.plan import OVERLOAD_SUSTAINABLE

from benchmarks.conftest import show


def test_goodput_plateaus_under_overload():
    rows = [dict(overload_rung(rate), rate=rate) for rate in OVERLOAD_LADDER]

    table = ExperimentTable("E20: overload ladder (goodput vs offered load)")
    for row in rows:
        table.add_row(
            offered_per_vsec=row["rate"],
            goodput_per_vsec=round(row["goodput_per_vsec"], 1),
            requests_shed=row["requests_shed"],
            busy_replies=row["busy_replies"],
            view_changes=row["view_changes_started"],
            view_changes_damped=row["view_changes_damped"],
        )
    show(table)

    sub, mid, deep = rows
    # Below saturation: everything offered is executed, nothing is shed.
    assert sub["executed"] == sub["offered"]
    assert sub["requests_shed"] == 0
    assert sub["busy_replies"] == 0
    # Past saturation: shedding engages and Busy hints flow back.
    for row in (mid, deep):
        assert row["requests_shed"] > 0
        assert row["busy_replies"] > 0
    assert deep["requests_shed"] > mid["requests_shed"]
    # Goodput plateaus near capacity instead of collapsing: tripling the
    # offered rate from 2x to 6x moves executed throughput by < 20%, and
    # both stay at or above the calibrated sustainable rate.
    assert mid["goodput_per_vsec"] >= OVERLOAD_SUSTAINABLE
    assert deep["goodput_per_vsec"] >= OVERLOAD_SUSTAINABLE
    assert abs(mid["executed"] - deep["executed"]) < 0.2 * mid["executed"]
    # The availability claim: not one view change anywhere on the ladder,
    # because damping recognized a busy-but-alive primary every time.
    for row in rows:
        assert row["view_changes_started"] == 0
    assert mid["view_changes_damped"] > 0
    assert deep["view_changes_damped"] > 0
