#!/usr/bin/env python3
"""Reproduce the paper's evaluation: the Andrew benchmark, replicated vs the
off-the-shelf implementation it wraps (paper section 4: ≈30% overhead).

Run:  python examples/andrew_benchmark.py [scale]
"""

import sys

from repro.bench.andrew import andrew_comparison


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 2

    # One run on a client mounted directly on the unreplicated MemFS, one on
    # four vendors behind BASE (the same pair `repro andrew` and E3 measure).
    run = andrew_comparison(scale)
    run.table(f"Andrew benchmark, scale={scale} (virtual seconds per phase)").show()
    print("\n" + run.summary())


if __name__ == "__main__":
    main()
