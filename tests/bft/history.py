"""Safety checks over the execution evidence a ``HistoryRecorder`` collects.

The recorder and ``order_divergence`` live in ``repro.bft.testing`` because
``repro.explore`` consumes them; these helpers only the tests use.  The
reboot-free prefix property compares whole per-replica histories; the
pairwise order property holds across reboots and mid-run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bft.testing import HistoryRecorder, order_divergence


def cumulative_histories(recorder: HistoryRecorder) -> Dict[str, List[Tuple[str, bytes]]]:
    """Per-replica histories concatenated across incarnations (only
    meaningful for runs without reboots, where it equals the single
    segment)."""
    return {
        rid: [entry for segment in segments for entry in segment]
        for rid, segments in recorder.history_segments.items()
    }


def is_subsequence(short: List, long: List) -> bool:
    """Order-preserving containment (not contiguity)."""
    it = iter(long)
    return all(item in it for item in short)


def prefix_divergence(histories: Dict[str, List]) -> Optional[str]:
    """Check the SMR safety invariant over settled, reboot-free histories.

    A replica that catches up by state transfer *skips* the requests covered
    by the transferred checkpoint, so its history may have gaps — but it must
    still be an order-preserving subsequence of the longest history: no
    reordering, no divergent content, ever.  Returns a description of the
    first diverging replica, or None when all histories are consistent.
    """
    if not histories:
        return None
    reference = max(histories.values(), key=len)
    for replica_id in sorted(histories):
        if not is_subsequence(histories[replica_id], reference):
            return (
                f"{replica_id}'s execution order diverged from the reference "
                f"history ({len(histories[replica_id])} vs {len(reference)} entries)"
            )
    return None


def assert_prefix_consistent(histories: Dict[str, List]) -> None:
    problem = prefix_divergence(histories)
    assert problem is None, problem


def assert_order_consistent(recorder: HistoryRecorder, exclude=()) -> None:
    problem = order_divergence(recorder.history_segments, exclude=exclude)
    assert problem is None, problem
