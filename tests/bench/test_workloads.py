"""The workload generator drives real operations and is deterministic."""

import pytest

from repro.bench.workloads import write_heavy
from repro.net.simulator import Simulator
from repro.nfs.direct import direct_client
from repro.nfs.fileserver import MemFS


@pytest.fixture
def fs():
    return direct_client(MemFS(disk={}, seed=1), sim=Simulator(seed=0))


def test_write_heavy_touches_working_set(fs):
    count = write_heavy(fs, 20, width=4)
    assert count == 20
    assert sorted(fs.listdir("/wh")) == ["f0", "f1", "f2", "f3"]
    assert any(fs.stat(f"/wh/f{i}").size > 0 for i in range(4))


def test_workloads_deterministic():
    def run():
        fs = direct_client(MemFS(disk={}, seed=1), sim=Simulator(seed=0))
        write_heavy(fs, 30, width=4, seed=5)
        return [fs.read_file(f"/wh/f{i}") for i in range(4)]

    assert run() == run()
