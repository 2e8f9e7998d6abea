"""The Andrew benchmark generator and harness utilities."""

import pytest

from repro.bench.andrew import AndrewBenchmark, andrew_comparison, synthesize_source_tree
from repro.bench.metrics import ExperimentTable, ratio
from repro.bench.codesize import count_semicolon_lines
from repro.net.simulator import Simulator
from repro.nfs.direct import direct_client
from repro.nfs.fileserver import MemFS


class TestSourceTree:
    def test_deterministic(self):
        assert synthesize_source_tree(scale=2, seed=7) == synthesize_source_tree(
            scale=2, seed=7
        )

    def test_scale_multiplies_units(self):
        small = synthesize_source_tree(scale=1)
        large = synthesize_source_tree(scale=3)
        assert len(large) == 3 * len(small)

    def test_files_have_content(self):
        for path, body in synthesize_source_tree(scale=1):
            assert path
            assert len(body) > 0

    def test_paths_unique(self):
        paths = [path for path, _ in synthesize_source_tree(scale=4)]
        assert len(paths) == len(set(paths))


class TestAndrewPhases:
    def _run(self):
        sim = Simulator(seed=0)
        fs = direct_client(MemFS(disk={}, seed=1), sim=sim, round_trip=0.001)
        return AndrewBenchmark(fs, sim, scale=1).run()

    def test_five_phases_in_order(self):
        result = self._run()
        assert [p.name for p in result.phases] == [
            "mkdir",
            "copy",
            "scan",
            "read",
            "make",
        ]

    def test_phases_take_time_and_do_work(self):
        result = self._run()
        for phase in result.phases:
            assert phase.virtual_seconds > 0
            assert phase.operations > 0

    def test_totals_are_sums(self):
        result = self._run()
        assert result.total_seconds == pytest.approx(
            sum(p.virtual_seconds for p in result.phases)
        )
        assert result.total_operations == sum(p.operations for p in result.phases)

    def test_rows_include_total(self):
        """The replicated-vs-unreplicated table: five phases and their sum,
        the replicated side paying a bounded overhead on every row."""
        run = andrew_comparison(scale=1)
        rows = run.table("andrew").rows
        assert [row["phase"] for row in rows] == [
            "mkdir", "copy", "scan", "read", "make", "total"
        ]
        assert all(1.0 < row["overhead"] < 2.5 for row in rows)
        assert rows[-1]["overhead"] == round(run.overhead, 3)
        assert run.protocol_costs()["messages"] > run.replicated.total_operations

    def test_deterministic_runs(self):
        a = self._run()
        b = self._run()
        assert [p.virtual_seconds for p in a.phases] == [
            p.virtual_seconds for p in b.phases
        ]


class TestMetrics:
    def test_table_render(self):
        table = ExperimentTable("demo")
        table.add_row(name="a", value=1)
        table.add_row(name="bb", value=22)
        rendered = table.render()
        assert "demo" in rendered
        assert "name" in rendered and "value" in rendered
        assert "bb" in rendered

    def test_empty_table(self):
        assert "(no rows)" in ExperimentTable("empty").render()

    def test_ratio_guards_zero(self):
        assert ratio(1.0, 0.0) == float("inf")
        assert ratio(3.0, 2.0) == 1.5


class TestCodeSize:
    def test_counts_statements_not_structure(self):
        source = (
            "x = 1\n"
            "for i in range(3):\n"
            "    y = i\n"
            "class C:\n"
            "    z = 2\n"
        )
        # x=1, y=i, z=2 — not the for/class lines themselves.
        assert count_semicolon_lines(source) == 3

    def test_docstrings_excluded(self):
        assert count_semicolon_lines('"""module doc"""\nx = 1\n') == 1

    def test_empty_module(self):
        assert count_semicolon_lines("") == 0
