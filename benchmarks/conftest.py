"""Shared builders for the paper experiments, and the one place their results
are recorded.

Every experiment is a plain pytest test that runs a seeded simulation once —
the numbers are protocol-level and bit-identical across runs and hosts, so
there is nothing to repeat or time.  Each prints its table through
:func:`show`, which also records the table's numeric cells; at session end
they are written to ``BENCH_paper.json`` in the ``repro bench`` report format.
A full run must reproduce ``benchmarks/baselines/BENCH_paper.json`` byte for
byte; to re-record after an intended change, run the suite and copy the file.
"""

from pathlib import Path
from typing import Dict

from repro.bench.cli import write_report
from repro.bench.metrics import ExperimentTable
from repro.bft.config import BFTConfig
from repro.net.simulator import Simulator
from repro.nfs.direct import direct_client
from repro.nfs.fileserver import HETEROGENEOUS, MemFS
from repro.nfs.relay import NFSDeployment

#: Table title -> {"<first cell of the row>.<column>": number}, this session.
PAPER_TABLES: Dict[str, Dict[str, float]] = {}


def record(table: ExperimentTable, into: Dict[str, Dict[str, float]]) -> None:
    """Add ``table``'s numeric cells, as printed, to ``into`` under its title;
    each is keyed by its row's first cell and its column.  Booleans count as
    0/1, other cells (labels, "5.00x", lists) are skipped.  Two tables with
    one title, or two rows with one first cell, would overwrite each other's
    numbers, so both are refused."""
    if table.title in into:
        raise ValueError(f"table {table.title!r} recorded twice")
    cells = into[table.title] = {}
    seen = set()
    for row in table.rows:
        label = str(row[table.columns[0]])
        if label in seen:
            raise ValueError(f"table {table.title!r} has two rows labelled {label!r}")
        seen.add(label)
        for column, value in row.items():
            if isinstance(value, (int, float)):  # bool is an int: True records as 1
                cells[f"{label}.{column}"] = int(value) if isinstance(value, bool) else value


def show(table: ExperimentTable) -> None:
    """Print ``table`` and record it for ``BENCH_paper.json``."""
    table.show()
    record(table, PAPER_TABLES)


def pytest_sessionfinish(session) -> None:
    if PAPER_TABLES:
        write_report(Path("BENCH_paper.json"), "paper", PAPER_TABLES)


def bench_config(**overrides) -> BFTConfig:
    defaults = dict(checkpoint_interval=16, log_window=64)
    defaults.update(overrides)
    return BFTConfig(**defaults)


def hetero_deployment(num_objects: int = 256, **config_overrides) -> NFSDeployment:
    """Four replicas, four distinct vendors (the paper's deployment)."""
    return NFSDeployment(
        HETEROGENEOUS,
        num_objects=num_objects,
        config=bench_config(**config_overrides),
    )


def homo_deployment(vendor=MemFS, num_objects: int = 256, **config_overrides) -> NFSDeployment:
    """Four replicas all running the same vendor."""
    return NFSDeployment(
        {
            rid: (lambda disk, i=i: vendor(disk=disk, seed=10 + i))
            for i, rid in enumerate(["R0", "R1", "R2", "R3"])
        },
        num_objects=num_objects,
        config=bench_config(**config_overrides),
    )


def baseline_client(vendor=MemFS, seed: int = 1, round_trip: float = 0.001):
    """The unreplicated off-the-shelf server the replicated service wraps."""
    sim = Simulator(seed=0)
    fs = direct_client(vendor(disk={}, seed=seed), sim=sim, round_trip=round_trip)
    return sim, fs
