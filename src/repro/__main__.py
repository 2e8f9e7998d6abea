"""Command-line entry point: quick demos of the replicated file service.

    python -m repro demo       # heterogeneous replicated NFS walkthrough
    python -m repro andrew 2   # Andrew benchmark at a given scale
    python -m repro lint       # determinism linter (DET rules + call-graph taint)
    python -m repro explore    # fault-schedule exploration under safety oracles
    python -m repro replay F   # re-execute a repro artifact (of explore or soak)
    python -m repro soak       # long-horizon fault campaign vs availability SLO
    python -m repro bench      # deterministic benchmark suites (BENCH_*.json)
    python -m repro version
"""

from __future__ import annotations

import sys
from typing import List, Optional


def _demo() -> None:
    from repro.bft.config import BFTConfig
    from repro.nfs.client import NFSClient
    from repro.nfs.fileserver import HETEROGENEOUS
    from repro.nfs.relay import NFSDeployment

    deployment = NFSDeployment(
        HETEROGENEOUS, config=BFTConfig(checkpoint_interval=16, log_window=64)
    )
    fs = NFSClient(deployment.relay("demo"))
    fs.mkdir("/demo")
    fs.write_file("/demo/hello.txt", b"replicated across four distinct filesystems\n")
    print("wrote /demo/hello.txt; reading back with one replica crashed...")
    deployment.cluster.crash("R1")
    print(fs.read_file("/demo/hello.txt").decode().strip())
    deployment.cluster.restart("R1")
    deployment.sim.run_for(3.0)
    roots = {
        rid: deployment.cluster.service(rid).current_node(0, 0)[1].hex()[:12]
        for rid in deployment.cluster.hosts
    }
    print("abstract state roots:", roots)
    print("all replicas agree" if len(set(roots.values())) == 1 else "DIVERGED")


def _andrew(scale: int) -> None:
    from repro.bench.andrew import andrew_comparison

    run = andrew_comparison(scale)
    run.table(f"Andrew benchmark, scale={scale} (virtual seconds per phase)").show()
    print("\n" + run.summary())


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    command = args[0] if args else "demo"
    if command == "demo":
        _demo()
    elif command == "andrew":
        scale = int(args[1]) if len(args) > 1 else 2
        _andrew(scale)
    elif command == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(args[1:])
    elif command == "explore":
        from repro.explore.cli import explore_main

        return explore_main(args[1:])
    elif command == "replay":
        from repro.explore.cli import replay_main

        return replay_main(args[1:])
    elif command == "soak":
        from repro.soak.cli import soak_main

        return soak_main(args[1:])
    elif command == "bench":
        from repro.bench.cli import bench_main

        return bench_main(args[1:])
    elif command == "version":
        import repro

        print(repro.__version__)
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
