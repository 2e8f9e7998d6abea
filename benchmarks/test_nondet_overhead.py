"""E11 — non-determinism agreement: correctness under skew and its cost.

Replicas' clocks are skewed by up to ±0.8s in the heterogeneous deployment,
yet every replica stores identical abstract timestamps because the primary's
proposal is agreed through the protocol; the mechanism's cost is 8 bytes per
batch.
"""

from repro.bench.metrics import ExperimentTable
from repro.nfs.client import NFSClient
from repro.nfs.conversion import abstraction_function

from benchmarks.conftest import hetero_deployment, show


def test_agreed_timestamps_identical_across_skewed_replicas():
    dep = hetero_deployment()
    fs = NFSClient(dep.relay("C0"))
    fs.mkdir("/t")
    for i in range(10):
        fs.write_file(f"/t/f{i}", bytes([i]) * 64)
    dep.sim.run_for(1.0)
    stamps = {}
    for rid in dep.cluster.hosts:
        wrapper = dep.wrapper(rid)
        stamps[rid] = [(entry.mtime, entry.ctime) for entry in wrapper.entries[:16]]
    mtimes = [entry.mtime for entry in dep.wrapper("R0").entries[:16] if entry.allocated]

    assert len({tuple(s) for s in stamps.values()}) == 1  # identical everywhere
    assert all(m > 0 for m in mtimes)

    # Abstract objects byte-identical too (timestamps are inside them).
    for index in range(16):
        values = {
            abstraction_function(dep.wrapper(rid), index) for rid in dep.cluster.hosts
        }
        assert len(values) == 1

    table = ExperimentTable("E11: non-determinism agreement")
    table.add_row(
        replicas=4,
        clock_skews="+0.5 / -0.3 / +0.8 / +0.1 s",
        identical_timestamps=True,
        nondet_bytes_per_batch=8,
    )
    show(table)


def test_nondet_value_is_monotone():
    dep = hetero_deployment()
    fs = NFSClient(dep.relay("C0"))
    fs.mkdir("/m")
    stamps = []
    for i in range(10):
        attr = fs.write_file(f"/m/f{i}", b"x")
        stamps.append(attr.mtime)
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)  # strictly increasing
