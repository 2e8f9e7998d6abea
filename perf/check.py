"""Output verification, wired into every benchmark run.

A run is only worth timing if the program still computes the right thing:
every replica group ends on one abstract-state root, the workload's own
read-back matches its sequential model (``Workload.verify``), and the
repetitions of one run — same seed, fresh deployment each — agree on every
virtual metric and count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Virtual seconds a group gets to converge after the load stops (a replica
#: may be mid-recovery when the timed region ends).
CONVERGE_WITHIN = 10.0
CONVERGE_STEP = 0.25


def _roots(cluster) -> Dict[str, bytes]:
    return {rid: cluster.service(rid).current_node(0, 0)[1] for rid in cluster.hosts}


def roots_agree(clusters: Sequence) -> List[str]:
    """All replicas of every group reach the same abstract-state root."""
    problems = []
    for index, cluster in enumerate(clusters):
        deadline = cluster.sim.now() + CONVERGE_WITHIN
        while len(set(_roots(cluster).values())) > 1 and cluster.sim.now() < deadline:
            cluster.sim.run_for(CONVERGE_STEP)
        roots = _roots(cluster)
        if len(set(roots.values())) > 1:
            shown = {rid: root.hex()[:12] for rid, root in sorted(roots.items())}
            problems.append(f"group {index} replicas disagree on the state root: {shown}")
    return problems


def verify_outputs(workload) -> List[str]:
    """Everything wrong with what one repetition produced."""
    problems = list(workload.verify())
    problems += roots_agree(workload.clusters())
    if workload.wrong:
        problems.append(f"{workload.wrong} ops completed with a wrong result")
    return problems


def repetitions_agree(virtual: Sequence[Dict[str, float]]) -> List[str]:
    """The code path is deterministic: repetitions of one seed must produce
    identical virtual metrics and counts."""
    problems = []
    first = virtual[0]
    for number, other in enumerate(virtual[1:], start=2):
        for key in sorted(set(first) | set(other)):
            if first.get(key) != other.get(key):
                problems.append(
                    f"repetition {number} disagrees on {key}: "
                    f"{other.get(key)!r} vs {first.get(key)!r}"
                )
    return problems
