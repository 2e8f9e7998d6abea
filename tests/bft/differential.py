"""Differential protocol-equivalence harness for the RECIPE-style fast path.

One seeded fault plan is replayed through the protocol variants of
``repro.bft.config.VARIANTS`` — the baseline three-phase protocol, then one
more fast-path mechanism per row (pipelined ordering, speculative execution,
read leases), so a failure isolates the mechanism that broke equivalence —
on the same deterministic simulator.  The equivalence contract:

* every safety oracle holds in every configuration;
* requests acknowledged under *all* configurations got byte-identical
  replies;
* the committed operation sequences, projected onto the operations every
  configuration committed, are identical (same operations, same order).

The projection handles legitimate divergence in *coverage*: a request can
time out under one configuration and complete under another (timing shifts
with batching depth), but anything both configurations committed must agree
byte-for-byte.  A fast path that reordered, dropped, or double-executed
work, or leaked an uncommitted speculative result to a client, breaks one
of these checks or an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bft.config import VARIANTS
from repro.explore.plan import FaultPlan
from repro.explore.runner import RunOutcome, run_plan


@dataclass
class DifferentialVerdict:
    """Comparison of one plan across the configuration ladder."""

    plan: FaultPlan
    outcomes: Dict[str, RunOutcome]
    mismatches: List[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.equivalent:
            return f"plan seed={self.plan.seed}: all configurations equivalent"
        lines = [f"plan seed={self.plan.seed}: {len(self.mismatches)} mismatch(es)"]
        lines.extend(f"  - {m}" for m in self.mismatches)
        return "\n".join(lines)


def run_differential(
    plan: FaultPlan,
    plant: Optional[str] = None,
    check_interval: int = 10,
    variants: Sequence[str] = tuple(VARIANTS),
) -> DifferentialVerdict:
    """Replay ``plan`` under every named variant (by default the whole
    ladder, in ``VARIANTS`` order) and compare the outcomes."""
    outcomes: Dict[str, RunOutcome] = {
        name: run_plan(
            plan,
            plant=plant,
            check_interval=check_interval,
            config_overrides=VARIANTS[name].overrides,
        )
        for name in variants
    }
    return compare_outcomes(plan, outcomes, list(variants))


def compare_outcomes(
    plan: FaultPlan, outcomes: Dict[str, RunOutcome], names: List[str]
) -> DifferentialVerdict:
    """Judge already-collected outcomes (the first name is the reference)."""
    verdict = DifferentialVerdict(plan=plan, outcomes=outcomes)
    baseline = names[0]

    for name in names:
        violation = outcomes[name].violation
        if violation is not None:
            verdict.mismatches.append(
                f"{name}: oracle violation [{violation.oracle}] {violation.detail}"
            )
    if verdict.mismatches:
        return verdict  # violations make the remaining comparisons noise

    # Client-visible replies: indices acknowledged under every configuration
    # must carry byte-identical results.
    replies = {name: outcomes[name].client_replies or [] for name in names}
    common_acked = [
        i
        for i in range(plan.requests)
        if all(i < len(replies[name]) and replies[name][i] is not None for name in names)
    ]
    for i in common_acked:
        values = {name: replies[name][i] for name in names}
        if len(set(values.values())) > 1:
            verdict.mismatches.append(
                f"request {i}: divergent replies "
                + ", ".join(f"{n}={v!r}" for n, v in sorted(values.items()))
            )

    # Committed operation sequences, projected onto the intersection: the
    # operations every configuration committed must appear in the same order
    # with the same bytes.
    histories = {name: outcomes[name].committed_history or [] for name in names}
    shared = set(histories[baseline])
    for name in names[1:]:
        shared &= set(histories[name])
    projected = {
        name: [entry for entry in histories[name] if entry in shared]
        for name in names
    }
    for name in names[1:]:
        if projected[name] != projected[baseline]:
            verdict.mismatches.append(
                f"{name}: committed sequence diverges from {baseline} on their "
                f"common operations ({len(projected[name])} vs "
                f"{len(projected[baseline])} entries)"
            )
    return verdict
