"""The fault-plan DSL's data: a declarative, seed-generatable fault timeline.

A :class:`FaultPlan` composes the primitives the test suite already uses by
hand — crashes, restarts, partitions, per-node packet loss, proactive
recoveries, and the Byzantine injectors from ``repro.faults`` — into a list
of timestamped :class:`FaultStep`\\ s plus the run parameters (cluster seed,
workload length, baseline loss, optional schedule-perturbation seed).  Plans
are pure data: :func:`generate_plan` is a deterministic function of its seed,
and the JSON codec round-trips plans byte-identically, which is what makes
repro artifacts replayable.  What a step *kind* is (family, applier, where it
runs, what it must carry) is declared once, in the interpreter's
``STEP_TABLE``; this module imports nothing from ``repro`` and looks at no kind.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, get_type_hints

PLAN_FORMAT_VERSION = 1

REPLICA_IDS: Tuple[str, ...] = ("R0", "R1", "R2", "R3")

#: The step families; the interpreter's ``STEP_TABLE`` puts every kind in one.
BENIGN, BYZANTINE, IMPLEMENTATION = "benign", "byzantine", "implementation"
OVERLOAD, CAMPAIGN, DESTRUCTION = "overload", "campaign", "destruction"
#: The families :func:`generate_plan` can add to a plan, one at a time.
OPT_IN_FAMILIES: Tuple[str, ...] = (IMPLEMENTATION, OVERLOAD, DESTRUCTION)


@dataclass(frozen=True)
class FaultStep:
    """One timestamped fault action.

    at:       absolute virtual time the step fires.
    kind:     a key of the interpreter's ``STEP_TABLE``.
    target:   replica id, for steps that act on one replica.
    groups:   partition groups (``partition`` only).
    fraction: outbound drop fraction (``drop``), or the per-op stall override
              of ``age_replicas``.
    duration: how long a ``drop`` interceptor stays installed, or how long an
              overload / campaign episode lasts.
    index:    abstract object index (``corrupt_object``) or shard group index
              (``destroy_group``; taken modulo the run's shard count).
    rate:     offered load in requests/second (``overload`` / ``flash_crowd``:
              the flash-crowd *peak* rate).
    clients:  size of the open-loop client swarm (``overload`` /
              ``flash_crowd``).
    bandwidth: per-link capacity in bytes/vsec during the episode
              (``overload`` only; 0 leaves links infinite).
    region:   region name (``region_outage`` / ``latency_spike``; blank on a
              spike means every inter-region boundary).
    count:    number of correlated cuts (``partition_storm`` only).
    factor:   latency multiplier (``latency_spike`` only).
    """

    at: float
    kind: str
    target: str = ""
    groups: Tuple[Tuple[str, ...], ...] = ()
    fraction: float = 0.0
    duration: float = 0.0
    index: int = 0
    rate: float = 0.0
    clients: int = 0
    bandwidth: float = 0.0
    region: str = ""
    count: int = 0
    factor: float = 0.0

    def to_dict(self) -> Dict:
        """Sparse: ``at`` and ``kind`` always, any other field only when set."""
        entry: Dict = {}
        for name in STEP_FIELDS:
            value = getattr(self, name)
            if value or name in ("at", "kind"):
                entry[name] = [list(g) for g in value] if name == "groups" else value
        return entry

    @classmethod
    def from_dict(cls, entry: Dict) -> "FaultStep":
        return _decode(cls, entry, STEP_FIELDS)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, replayable exploration run description."""

    seed: int  # simulator/cluster seed (all protocol nondeterminism)
    requests: int  # workload length (sequential SET operations)
    steps: Tuple[FaultStep, ...] = ()
    perturb_seed: Optional[int] = None  # tie-break shuffle seed (None = off)
    drop_rate: float = 0.0  # baseline network loss for the whole run
    recovery_period: float = 0.0  # proactive-recovery rotation (0 = off)
    topology: str = ""  # topology preset name ("" = flat default network)

    def to_dict(self) -> Dict:
        data = {name: getattr(self, name) for name in PLAN_FIELDS}
        data.update(version=PLAN_FORMAT_VERSION, steps=[s.to_dict() for s in self.steps])
        if not self.topology:  # emitted only when set: old artifacts stay byte-identical
            del data["topology"]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        data = dict(data)
        version = data.pop("version", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(f"unsupported plan format version {version}")
        return _decode(cls, data, PLAN_FIELDS)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


# The codecs are derived from the dataclasses — field name -> decoder, in
# declaration order — so a new field is one line above and nothing here.
_DECODERS = {
    float: float,
    int: int,
    str: str,
    Optional[int]: lambda value: value,
    Tuple[Tuple[str, ...], ...]: lambda value: tuple(tuple(group) for group in value),
    Tuple[FaultStep, ...]: lambda value: tuple(FaultStep.from_dict(s) for s in value),
}
STEP_FIELDS, PLAN_FIELDS = (
    {name: _DECODERS[hint] for name, hint in get_type_hints(cls).items()}
    for cls in (FaultStep, FaultPlan)
)


def _decode(cls, entry: Dict, decoders: Dict):
    unknown = sorted(set(entry) - set(decoders))
    if unknown:  # a misspelt key must not silently become a default
        raise ValueError(f"unknown {cls.__name__} fields {unknown}")
    try:
        return cls(**{name: decoders[name](value) for name, value in entry.items()})
    except TypeError as exc:  # a required field missing, or of the wrong shape
        raise ValueError(f"bad {cls.__name__}: {exc}") from None


# Overload-episode shape shared by generated plans and the acceptance tests:
# with every link squeezed to OVERLOAD_BANDWIDTH bytes/vsec the cluster
# sustains roughly OVERLOAD_SUSTAINABLE requests/second end to end (measured:
# an open-loop swarm at 80 req/s is fully absorbed, 120 req/s already sheds),
# so the generated rates are all >= 4x sustainable
# (see tests/explore/test_overload.py, which pins the calibration).
OVERLOAD_CLIENTS = 8
OVERLOAD_BANDWIDTH = 40_000.0
OVERLOAD_DURATION = 1.5
OVERLOAD_SUSTAINABLE = 100.0
OVERLOAD_RATES: Tuple[float, ...] = (600.0, 800.0, 1000.0)


def make_overload_step(at: float = 0.1, rate: float = OVERLOAD_RATES[0]) -> FaultStep:
    """The canonical pure-overload episode (open-loop swarm, squeezed links)."""
    return FaultStep(
        at=at,
        kind="overload",
        rate=rate,
        clients=OVERLOAD_CLIENTS,
        duration=OVERLOAD_DURATION,
        bandwidth=OVERLOAD_BANDWIDTH,
    )


def generate_plan(
    seed: int, requests: int = 24, max_steps: int = 6, family: Optional[str] = None
) -> FaultPlan:
    """Deterministically generate one exploration plan from a seed.

    The generated timeline keeps the run inside the protocol's fault
    assumptions — at most ``f`` replicas crashed at a time (crashes are
    paired with restarts), at most one partition at a time (paired with a
    heal), at most ``f`` Byzantine targets — so an honest implementation must
    satisfy every safety oracle on *every* generated plan.  Violations on
    generated plans therefore always indicate implementation bugs.

    ``family`` adds one of ``OPT_IN_FAMILIES`` (None, the default, draws no
    extra randomness, so default plans stay byte-identical across versions):
    ``IMPLEMENTATION`` mixes in ``poison_request`` / ``corrupt_object`` steps
    on one replica in place of any crash or Byzantine group (the f budget);
    ``OVERLOAD`` makes a *pure-overload* plan instead, one fault-free
    open-loop episode at a seeded rate >= 4x the sustainable load, judged
    strictly by the goodput oracle; ``DESTRUCTION`` (sharded runs only) drops
    the crash and Byzantine groups — a group replaced wholesale breaks their
    pairing — and ends the plan, after every other fault has resolved, with
    one ``destroy_group`` step that the fused backup tier must survive.
    """
    if family is not None and family not in OPT_IN_FAMILIES:
        raise ValueError(f"unknown family {family!r}; the families: {list(OPT_IN_FAMILIES)}")
    rng = random.Random(seed)
    if family == OVERLOAD:
        step = make_overload_step(
            at=round(rng.uniform(0.05, 0.2), 4),
            rate=rng.choice(OVERLOAD_RATES),
        )
        return FaultPlan(
            seed=rng.randrange(2**31),
            requests=requests,
            steps=(step,),
            perturb_seed=rng.randrange(2**31) if rng.random() < 0.5 else None,
        )
    # Step groups are (time-ordered within themselves) lists of steps that
    # must travel together; the plan is their time-sorted merge.  ``faulty``
    # holds the groups that spend the f budget or need pairing: crash /
    # restart pairs, Byzantine and implementation faults.
    groups: List[List[FaultStep]] = []
    faulty: List[List[FaultStep]] = []

    def t() -> float:
        return round(rng.uniform(0.05, 1.6), 4)

    if rng.random() < 0.55:  # crash/restart pair (<= f down at once: one pair)
        victim = rng.choice(REPLICA_IDS)
        start = t()
        groups.append(
            [
                FaultStep(at=start, kind="crash", target=victim),
                FaultStep(
                    at=round(start + rng.uniform(0.1, 0.7), 4),
                    kind="restart",
                    target=victim,
                ),
            ]
        )
        faulty.append(groups[-1])
    if rng.random() < 0.4:  # partition/heal pair
        split = rng.randrange(1, len(REPLICA_IDS))
        shuffled = list(REPLICA_IDS)
        rng.shuffle(shuffled)
        start = t()
        groups.append(
            [
                FaultStep(
                    at=start,
                    kind="partition",
                    groups=(tuple(sorted(shuffled[:split])), tuple(sorted(shuffled[split:]))),
                ),
                FaultStep(at=round(start + rng.uniform(0.1, 0.6), 4), kind="heal"),
            ]
        )
    for _ in range(rng.randrange(0, 3)):  # flaky-NIC style outbound loss
        groups.append(
            [
                FaultStep(
                    at=t(),
                    kind="drop",
                    target=rng.choice(REPLICA_IDS),
                    fraction=round(rng.uniform(0.1, 0.4), 3),
                    duration=round(rng.uniform(0.2, 1.0), 3),
                )
            ]
        )
    if rng.random() < 0.35:  # one-shot proactive recovery
        groups.append([FaultStep(at=t(), kind="recover", target=rng.choice(REPLICA_IDS))])
    if rng.random() < 0.45:  # one Byzantine replica (<= f)
        kind = rng.choice(
            ["equivocate", "equivocate", "fabricate_cert", "lie_checkpoint", "corrupt_votes", "corrupt_results"]
        )
        if kind == "equivocate" and rng.random() < 0.6:
            target = REPLICA_IDS[0]  # the view-0 primary actually equivocates
        else:
            target = rng.choice(REPLICA_IDS)
        groups.append([FaultStep(at=t(), kind=kind, target=target)])
        faulty.append(groups[-1])

    impl_group: List[FaultStep] = []
    if family == IMPLEMENTATION:
        impl_target = rng.choice(REPLICA_IDS)
        if rng.random() < 0.7:
            impl_group.append(
                FaultStep(at=t(), kind="poison_request", target=impl_target)
            )
        if not impl_group or rng.random() < 0.45:
            impl_group.append(
                FaultStep(
                    at=t(),
                    kind="corrupt_object",
                    target=impl_target,
                    index=rng.randrange(0, 8),
                )
            )
        impl_group.sort(key=lambda s: s.at)
        # Keep the total fault count within f: implementation faults replace
        # crash pairs and Byzantine misbehavior (all on one target anyway).
        groups = [group for group in groups if group not in faulty]
        faulty = [impl_group]

    # Honor the step budget without breaking pairs: drop whole groups.  The
    # implementation-fault group (when present) goes first so the budget
    # never squeezes it out.
    rng.shuffle(groups)
    if impl_group:
        groups.insert(0, impl_group)
    kept: List[List[FaultStep]] = []
    for group in groups:
        if sum(map(len, kept)) + len(group) <= max_steps:
            kept.append(group)

    if family == DESTRUCTION:
        # Wholesale-replacement of a group cannot honor crash/restart pairing
        # or keep a Byzantine replica faulty through the rebuild.
        kept = [group for group in kept if group not in faulty]
        kept.append(
            [
                FaultStep(
                    at=round(rng.uniform(2.0, 2.6), 4),
                    kind="destroy_group",
                    index=rng.randrange(0, 2),
                )
            ]
        )
    steps = sorted((step for group in kept for step in group), key=lambda s: s.at)

    return FaultPlan(
        seed=rng.randrange(2**31),
        requests=requests,
        steps=tuple(steps),
        perturb_seed=rng.randrange(2**31) if rng.random() < 0.5 else None,
        drop_rate=round(rng.uniform(0.01, 0.05), 3) if rng.random() < 0.5 else 0.0,
        recovery_period=round(rng.uniform(2.0, 4.0), 2) if rng.random() < 0.35 else 0.0,
    )
