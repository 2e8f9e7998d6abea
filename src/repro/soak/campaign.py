"""Correlated fault campaigns: the seeded campaign generator.

A *campaign* is a :class:`~repro.explore.plan.FaultPlan` whose steps use the
geo-scale kinds (``region_outage``, ``partition_storm``, ``latency_spike``,
``flash_crowd``, ``age_replicas``) against a named topology preset.  The
shared interpreter (:mod:`repro.explore.interpreter`) turns each such step
into concrete simulator actions at fire time, for ``run_plan`` and the
long-horizon soak harness alike; this module composes campaigns from a seed
(how long one runs, ``campaign_horizon``, is the interpreter's).
"""

from __future__ import annotations

import random
from typing import List

from repro.explore.interpreter import campaign_horizon
from repro.explore.plan import FaultPlan, FaultStep
from repro.net.topology import topology_preset

#: Aggregate request rate of each flash crowd, requests per virtual second.
CROWD_PEAK_RATE = 24.0

#: Per-executed-operation stall of the campaign's fragmentation aging.
PER_OP_STALL = 1.5e-4


def generate_campaign(
    seed: int,
    topology: str = "wan3",
    hours: float = 2.0,
    watchdog: bool = True,
    recovery_period: float = 600.0,
    storms: int = 3,
    flash_crowds: int = 2,
    crowd_clients: int = 4,
) -> FaultPlan:
    """Deterministically compose one long-horizon campaign from a seed.

    The same ``seed`` with ``watchdog=False`` yields the *identical* fault
    timeline with ``recovery_period=0`` — the soak acceptance contrast: the
    only variable is proactive rotation.
    """
    if hours <= 0:
        raise ValueError("hours must be > 0")
    rng = random.Random(seed)
    topo = topology_preset(topology)
    horizon = hours * 3600.0
    steps: List[FaultStep] = []

    # Aging arms early so the full horizon accumulates fragmentation.
    steps.append(FaultStep(at=5.0, kind="age_replicas", fraction=PER_OP_STALL))

    for _ in range(storms):
        steps.append(
            FaultStep(
                at=round(rng.uniform(0.08, 0.85) * horizon, 2),
                kind="partition_storm",
                count=rng.randrange(2, 5),
                duration=round(rng.uniform(40.0, 90.0), 2),
            )
        )

    steps.append(
        FaultStep(
            at=round(rng.uniform(0.2, 0.7) * horizon, 2),
            kind="latency_spike",
            factor=round(rng.uniform(2.0, 3.5), 2),
            duration=round(rng.uniform(60.0, 120.0), 2),
        )
    )

    # Flash crowds at evenly spread "local peak hours", one per slot.
    for i in range(flash_crowds):
        center = (i + 0.5) * horizon / max(1, flash_crowds)
        duration = round(min(240.0, horizon / 10.0), 2)
        steps.append(
            FaultStep(
                at=round(center - duration / 2.0, 2),
                kind="flash_crowd",
                rate=CROWD_PEAK_RATE,
                clients=crowd_clients,
                duration=duration,
            )
        )

    # Take out the *largest* region: on wan3 that is two replicas at once —
    # deliberately beyond the <= f assumption, so the outage span becomes a
    # declared beyond-assumption window.
    largest = max(topo.regions, key=lambda r: (len(r.replicas), r.name))
    steps.append(
        FaultStep(
            at=round(rng.uniform(0.45, 0.6) * horizon, 2),
            kind="region_outage",
            region=largest.name,
            duration=round(rng.uniform(45.0, 75.0), 2),
        )
    )

    steps.sort(key=lambda s: s.at)
    return FaultPlan(
        seed=rng.randrange(2**31),
        requests=0,
        steps=tuple(steps),
        topology=topology,
        recovery_period=recovery_period if watchdog else 0.0,
    )
