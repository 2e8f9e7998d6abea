"""E16 (ablation) — per-operation latency breakdown and the client handle
cache.

(a) Latency of each NFS operation type on the replicated service vs the
unreplicated baseline — shows *where* the agreement cost lands (mutations
pay three phases, reads pay one round trip).

(b) The kernel-NFS-client-style lookup cache: protocol calls saved on deep
paths (the paper's client is a real kernel client, which caches handles —
this quantifies how much that flatters the baseline-vs-replicated ratio).
"""

from repro.bench.metrics import ExperimentTable, ratio
from repro.nfs.client import NFSClient

from benchmarks.conftest import baseline_client, hetero_deployment, show

REPEATS = 10


def _time_ops(fs, sim):
    """Median-ish latency per op type (virtual seconds)."""
    import statistics

    fs.mkdir("/ops")
    results = {}

    def timed(name, fn, *args):
        samples = []
        for i in range(REPEATS):
            started = sim.now()
            fn(*(arg.format(i=i) if isinstance(arg, str) else arg for arg in args))
            samples.append(sim.now() - started)
        results[name] = statistics.median(samples)

    timed("create", fs.create, "/ops/c{i}")
    timed("write-1k", lambda p: fs.write(p, b"x" * 1024), "/ops/c{i}")
    timed("stat", fs.stat, "/ops/c{i}")
    timed("read-1k", lambda p: fs.read(p, 0, 1024), "/ops/c{i}")
    timed("readdir", fs.listdir, "/ops")
    timed("rename", lambda s: fs.rename(s, s + "r"), "/ops/c{i}")
    timed("unlink", fs.unlink, "/ops/c{i}r")
    return results


def test_per_operation_latency():
    base_sim, base_fs = baseline_client()
    baseline = _time_ops(base_fs, base_sim)
    dep = hetero_deployment()
    replicated = _time_ops(NFSClient(dep.relay("C0")), dep.sim)

    table = ExperimentTable("E16a: per-operation latency (virtual ms)")
    for op in baseline:
        table.add_row(
            operation=op,
            baseline_ms=round(baseline[op] * 1000, 3),
            replicated_ms=round(replicated[op] * 1000, 3),
            overhead=round(ratio(replicated[op], baseline[op]), 2),
        )
    show(table)

    # Reads ride the read-only path: their overhead must be well below the
    # mutation overhead.
    read_overhead = ratio(replicated["stat"], baseline["stat"])
    write_overhead = ratio(replicated["write-1k"], baseline["write-1k"])
    assert read_overhead < write_overhead


def test_handle_cache_saves_protocol_calls():
    results = {}
    for cached in (False, True):
        dep = hetero_deployment()
        fs = NFSClient(dep.relay("C0"), cache_handles=cached)
        fs.mkdir("/deep")
        fs.mkdir("/deep/a")
        fs.mkdir("/deep/a/b")
        fs.write_file("/deep/a/b/data", b"payload" * 50)
        started = dep.sim.now()
        for _ in range(20):
            fs.read_file("/deep/a/b/data")
        results[cached] = dep.sim.now() - started

    table = ExperimentTable("E16b: client handle cache on deep paths")
    for cached, elapsed in results.items():
        table.add_row(
            handle_cache="on" if cached else "off",
            virtual_seconds=round(elapsed, 4),
        )
    speedup = ratio(results[False], results[True])
    table.add_row(handle_cache="speedup", virtual_seconds=f"{speedup:.2f}x")
    show(table)

    assert speedup > 1.5  # three lookups saved per read on a 3-deep path
