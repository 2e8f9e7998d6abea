"""The Andrew benchmark (Howard et al., TOCS'88), as used by the paper.

Five phases over a synthetic software source tree:

1. **mkdir** — create the target directory hierarchy;
2. **copy**  — copy every source file into the tree;
3. **scan**  — stat every file and directory (``ls -lR``-style);
4. **read**  — read every byte of every file (``grep``/``wc``-style);
5. **make**  — "compile": read each source file and write a derived object
   file, then link the objects into one output.

The paper runs a *scaled-up* version generating 1 GB against both the
replicated file system and the unreplicated NFS implementation it wraps, and
reports ≈30% overhead.  Here ``scale`` multiplies the number of module
directories; measured costs are virtual-time seconds and protocol-level
counts, so the replicated/baseline *ratio* is the comparable number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bench.metrics import ExperimentTable, ratio
from repro.bft.config import BFTConfig
from repro.net.simulator import Simulator
from repro.nfs.client import NFSClient
from repro.nfs.direct import direct_client
from repro.nfs.fileserver import HETEROGENEOUS, MemFS
from repro.nfs.relay import NFSDeployment


def synthesize_source_tree(scale: int = 1, seed: int = 42) -> List[Tuple[str, bytes]]:
    """Deterministic synthetic project: (relative path, contents) pairs.
    Each unit of ``scale`` is three modules of four C files (about 600 bytes
    each) and a Makefile."""
    rng = random.Random(seed)
    files: List[Tuple[str, bytes]] = []
    for unit in range(scale):
        for module in range(3):
            directory = f"unit{unit}/mod{module}"
            for file_number in range(4):
                name = f"{directory}/src{file_number}.c"
                size = max(64, int(rng.gauss(600, 600 / 3)))
                body = (
                    f"/* {name} */\n".encode()
                    + b"int work(int x) { return x * 31 + 7; }\n" * (size // 40)
                )
                files.append((name, body))
            files.append((f"{directory}/Makefile", b"all: module.o\n"))
    return files


@dataclass
class PhaseResult:
    name: str
    virtual_seconds: float
    operations: int


@dataclass
class AndrewResult:
    phases: List[PhaseResult] = field(default_factory=list)
    total_bytes_written: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(p.virtual_seconds for p in self.phases)

    @property
    def total_operations(self) -> int:
        return sum(p.operations for p in self.phases)

    def with_total(self) -> List[PhaseResult]:
        """The five phases followed by their sum as a sixth, "total"."""
        total = PhaseResult("total", self.total_seconds, self.total_operations)
        return self.phases + [total]


class AndrewBenchmark:
    """Run the five phases against one mounted file service."""

    def __init__(
        self,
        fs: NFSClient,
        sim: Simulator,
        scale: int = 1,
        root: str = "/andrew",
        seed: int = 42,
    ) -> None:
        self.fs = fs
        self.sim = sim
        self.root = root
        self.files = synthesize_source_tree(scale=scale, seed=seed)
        self._op_counter_start = 0

    # The client counts one protocol call per transport call; approximate
    # "operations" by counting client-visible calls per phase.

    def run(self) -> AndrewResult:
        result = AndrewResult()
        for name, phase in (
            ("mkdir", self._phase_mkdir),
            ("copy", self._phase_copy),
            ("scan", self._phase_scan),
            ("read", self._phase_read),
            ("make", self._phase_make),
        ):
            started = self.sim.now()
            operations = phase()
            result.phases.append(
                PhaseResult(name, self.sim.now() - started, operations)
            )
        result.total_bytes_written = sum(len(body) for _p, body in self.files)
        return result

    def _directories(self) -> List[str]:
        seen: List[str] = []
        for path, _body in self.files:
            parts = path.split("/")
            for depth in range(1, len(parts)):
                directory = "/".join(parts[:depth])
                if directory not in seen:
                    seen.append(directory)
        return seen

    def _phase_mkdir(self) -> int:
        operations = 1
        self.fs.mkdir(self.root)
        for directory in self._directories():
            self.fs.mkdir(f"{self.root}/{directory}")
            operations += 1
        return operations

    def _phase_copy(self) -> int:
        operations = 0
        for path, body in self.files:
            self.fs.write_file(f"{self.root}/{path}", body)
            operations += 1
        return operations

    def _phase_scan(self) -> int:
        operations = 0
        for path in self.fs.walk_tree(self.root):
            self.fs.stat(path)
            operations += 1
        return operations

    def _phase_read(self) -> int:
        operations = 0
        for path, _body in self.files:
            self.fs.read_file(f"{self.root}/{path}")
            operations += 1
        return operations

    def _phase_make(self) -> int:
        operations = 0
        objects: List[bytes] = []
        for path, _body in self.files:
            if not path.endswith(".c"):
                continue
            source = self.fs.read_file(f"{self.root}/{path}")
            compiled = b"OBJ:" + source[: len(source) // 2]
            self.fs.write_file(f"{self.root}/{path[:-2]}.o", compiled)
            objects.append(compiled)
            operations += 2
        linked = b"".join(objects)
        self.fs.write_file(f"{self.root}/a.out", linked)
        return operations + 1


@dataclass
class AndrewComparison:
    """The paper's measurement: one Andrew run against the unreplicated
    server and one against the replicated service that wraps it."""

    baseline: AndrewResult
    replicated: AndrewResult
    deployment: NFSDeployment

    @property
    def overhead(self) -> float:
        return ratio(self.replicated.total_seconds, self.baseline.total_seconds)

    def table(self, title: str) -> ExperimentTable:
        """Virtual seconds per phase on both sides, and their ratio."""
        table = ExperimentTable(title)
        for base, rep in zip(self.baseline.with_total(), self.replicated.with_total()):
            table.add_row(
                phase=base.name,
                baseline=round(base.virtual_seconds, 4),
                replicated=round(rep.virtual_seconds, 4),
                overhead=round(ratio(rep.virtual_seconds, base.virtual_seconds), 3),
            )
        return table

    def protocol_costs(self) -> Dict[str, int]:
        """What the replicated run cost the whole cluster on the wire."""
        counters = self.deployment.cluster.total_counters()
        return {
            "messages": counters.get("messages_sent"),
            "bytes": counters.get("bytes_sent"),
            "mac_ops": counters.get("mac_generate") + counters.get("mac_verify"),
        }

    def summary(self) -> str:
        """The two lines ``repro andrew`` prints under the table."""
        costs = self.protocol_costs()
        return (
            f"paper's result: ~1.30x  |  this run: {self.overhead:.2f}x\n"
            f"protocol costs: {costs['messages']} messages, {costs['bytes']} bytes, "
            f"{costs['mac_ops']} MAC ops"
        )


def andrew_comparison(scale: int, recovery_period: float = 0.0) -> AndrewComparison:
    """Run the benchmark on a client mounted directly on one MemFS (1 ms
    round trip) and on the four-vendor deployment behind BASE; a non-zero
    ``recovery_period`` runs the proactive-recovery rotation during the
    replicated run (the paper's configuration)."""
    sim = Simulator(seed=0)
    direct = direct_client(MemFS(disk={}, seed=1), sim=sim, round_trip=0.001)
    baseline = AndrewBenchmark(direct, sim, scale=scale).run()

    deployment = NFSDeployment(
        HETEROGENEOUS,
        num_objects=max(256, scale * 64),
        config=BFTConfig(
            checkpoint_interval=16, log_window=64, recovery_period=recovery_period
        ),
    )
    if recovery_period:
        deployment.cluster.start_proactive_recovery()
    replicated = AndrewBenchmark(
        NFSClient(deployment.relay("C0")), deployment.sim, scale=scale
    ).run()
    return AndrewComparison(baseline, replicated, deployment)
