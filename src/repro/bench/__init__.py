"""Workload generators and the experiment harness.

* :mod:`repro.bench.andrew`    -- the (scaled) Andrew benchmark: five phases
  (mkdir, copy, scan, read, make) over a synthetic source tree, runnable
  against any file-service client, and the paper's replicated-vs-unreplicated
  comparison built on it;
* :mod:`repro.bench.suites`    -- the scenario registry behind ``repro bench``
  and the drivers the experiments in ``benchmarks/`` share with it;
* :mod:`repro.bench.workloads` -- the write-heavy micro-operation stream;
* :mod:`repro.bench.metrics`   -- table rendering for the experiment reports;
* :mod:`repro.bench.codesize`  -- the paper's code-size argument (E4):
  logical statements of the conformance wrapper + state conversion vs the
  wrapped implementations.
"""

from repro.bench.andrew import AndrewBenchmark, AndrewResult, synthesize_source_tree
from repro.bench.metrics import ExperimentTable, ratio
from repro.bench.codesize import count_semicolon_lines, wrapper_code_size

__all__ = [
    "AndrewBenchmark",
    "AndrewResult",
    "synthesize_source_tree",
    "ExperimentTable",
    "ratio",
    "count_semicolon_lines",
    "wrapper_code_size",
]
