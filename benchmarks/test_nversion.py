"""E8 — common-mode (deterministic) software bugs: same-version vs N-version.

The paper's core availability argument: deterministic bugs crash every
replica that runs the same implementation at once; opportunistic N-version
programming decorrelates the failures.  We inject the poison-write bug into
vendor A and measure what survives in each deployment.
"""

from repro.bench.metrics import ExperimentTable
from repro.bft.client import InvocationTimeout
from repro.bft.config import BFTConfig
from repro.faults import POISON, BuggyServer
from repro.nfs.client import NFSClient
from repro.nfs.fileserver import Ext2FS, FFS, LogFS, MemFS
from repro.nfs.relay import NFSDeployment

from benchmarks.conftest import show


def _deployment(n_version: bool) -> NFSDeployment:
    if n_version:
        factories = {
            "R0": lambda disk: BuggyServer(MemFS(disk=disk, seed=10)),
            "R1": lambda disk: Ext2FS(disk=disk, seed=11),
            "R2": lambda disk: FFS(disk=disk, seed=12),
            "R3": lambda disk: LogFS(disk=disk, seed=13),
        }
    else:
        factories = {
            rid: (lambda disk, i=i: BuggyServer(MemFS(disk=disk, seed=10 + i)))
            for i, rid in enumerate(["R0", "R1", "R2", "R3"])
        }
    return NFSDeployment(
        factories, num_objects=128, config=BFTConfig(checkpoint_interval=16, log_window=64)
    )


def _trigger_and_measure(dep: NFSDeployment):
    fs = NFSClient(dep.relay("C0"))
    fs.write_file("/pre.txt", b"before the bug")
    fs.create("/bomb.txt")
    survived_trigger = True
    try:
        fs.write("/bomb.txt", POISON)
    except (InvocationTimeout, Exception):
        dep.cluster.client("C0").cancel()
        survived_trigger = False
    crashed = [rid for rid in dep.cluster.hosts if dep.cluster.network.is_down(rid)]
    post_ok = False
    if survived_trigger:
        try:
            fs.write_file("/post.txt", b"after the bug")
            post_ok = fs.read_file("/post.txt") == b"after the bug"
        except Exception:
            post_ok = False
    return {
        "crashed_replicas": len(crashed),
        "service_survived": survived_trigger and post_ok,
    }


def test_common_mode_bug_matrix():
    results = {
        "same vendor x4": _trigger_and_measure(_deployment(n_version=False)),
        "N-version (bug in 1 vendor)": _trigger_and_measure(_deployment(n_version=True)),
    }

    table = ExperimentTable("E8: deterministic bug — same-version vs N-version")
    for name, row in results.items():
        table.add_row(
            deployment=name,
            crashed_replicas=row["crashed_replicas"],
            service_survived=row["service_survived"],
        )
    show(table)

    same = results["same vendor x4"]
    nver = results["N-version (bug in 1 vendor)"]
    assert same["crashed_replicas"] == 4
    assert not same["service_survived"]
    assert nver["crashed_replicas"] == 1
    assert nver["service_survived"]


def test_n_version_plus_recovery_restores_full_strength():
    """After the bug fires, proactive recovery rejuvenates the crashed
    replica and the system is back to tolerating a further fault."""
    dep = _deployment(n_version=True)
    fs = NFSClient(dep.relay("C0"))
    fs.create("/bomb.txt")
    fs.write("/bomb.txt", POISON)
    dep.sim.run_for(0.5)
    # Scrub the poison and let the surviving quorum advance past the
    # poisoned request: the recovering replica must restart from a
    # checkpoint whose abstract state no longer triggers the bug (a
    # deterministic bug fired by at-rest data would re-kill the buggy
    # vendor during the state install — correctly so).
    fs.unlink("/bomb.txt")
    for i in range(20):
        fs.write_file(f"/progress{i}.txt", bytes([i]) * 32)
    dep.sim.run_for(1.0)
    host = dep.cluster.hosts["R0"]
    assert host.recover_now()
    dep.sim.run_for(5.0)
    # Now crash a second replica: with R0 restored, still live.
    dep.cluster.crash("R1")
    fs.write_file("/final.txt", b"still standing")
    assert host.replica.counters.get("recoveries_completed") >= 1
    assert fs.read_file("/final.txt") == b"still standing"
