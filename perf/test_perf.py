"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest perf -q`` (``testpaths`` keeps
this file out of the tier-1 suite).
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import compare, run, trace, workloads  # noqa: E402
from perf.record import OpRecorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [spec["name"] for spec in BENCHMARK["workloads"]]


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("traced, group", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_named_metric(name, traced, group, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(traced), "--tiny"]
    assert run.main(argv) == 0
    result = _last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {spec["name"]: spec["unit"] for spec in BENCHMARK[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if traced:
        written = json.loads((tmp_path / f"trace_{name}.json").read_text())
        assert written["traceEvents"] and written["per_layer"] == result["metrics"]
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def _touched():
    """Every (owner, attribute) the wrappers may rebind."""
    digest_module = trace.digest_module
    touched = [(owner, attribute) for _layer, owner, attribute in trace.ENTRY_POINTS]
    touched += [(trace.Node, "set_timer"), (trace.ShardedClient, "invoke_txn_async")]
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for attribute in ("digest", "combine_digests"):
                if module.__dict__.get(attribute) is digest_module.__dict__[attribute]:
                    touched.append((module, attribute))
    return list({(id(owner), attribute): (owner, attribute) for owner, attribute in touched}.values())


def test_wrappers_restore_classes_and_module_bindings():
    import repro.base.statemgr as statemgr

    digest_module = trace.digest_module
    touched = _touched()

    def bound():
        return [owner.__dict__[attribute] for owner, attribute in touched]

    before = bound()
    assert (statemgr, "digest") in touched  # a name imported with from ... import
    recorder = OpRecorder()
    recorder.install()
    tracer = trace.Tracer()
    tracer.install()
    assert all(now is not then for now, then in zip(bound(), before))
    assert statemgr.digest is digest_module.digest  # rebound together
    tracer.uninstall()
    recorder.uninstall()
    assert all(now is then for now, then in zip(bound(), before))


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 10] in sim; children net [1, 4] and crypto [5, 9]; crypto has a
    # codec child [6, 8].  Self time is duration minus what children cover.
    expected = {"sim": 3.0, "net": 3.0, "crypto": 2.0, "codec": 2.0}
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    tracer = trace.Tracer(clock=lambda: next(ticks))
    codec = tracer.wrap("codec", "encode", lambda: None)
    crypto = tracer.wrap("crypto", "mac", codec)
    net = tracer.wrap("net", "send", lambda: None)
    tracer.wrap("sim", "step", lambda: (net(), crypto()))()
    result = tracer.result()
    table = result.layer_table()
    assert {layer: table[layer]["self_s"] for layer in expected} == expected
    assert result.top_s == 10.0
    assert sum(row["self_s"] for row in table.values()) == result.top_s


def _result(ops_per_s, ops_per_vsec, spread=0.01):
    entry = {"ops_per_s": ops_per_s, "ops_per_vsec": ops_per_vsec}
    metrics = {
        spec["name"]: {"value": entry.get(spec["name"], 1.0), "unit": spec["unit"]}
        for spec in BENCHMARK["end_to_end"]
    }
    return {"workloads": {"kv_write": {"end_to_end": metrics, "rep_spread": spread}}}


def test_compare_verdicts_on_fixture_files(tmp_path, capsys):
    bound = {spec["name"]: spec["bound"] for spec in BENCHMARK["end_to_end"]}

    def outcome(base, new):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(new))
        code = compare.main([str(a), str(b)])
        rows = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[:-1]}
        return code, rows

    code, rows = outcome(_result(1000.0, 3.0), _result(1000.0, 3.0))
    assert code == 0 and set(rows.values()) == {"same"}

    slower = 1000.0 * (1 - 2 * bound["ops_per_s"])
    code, rows = outcome(_result(1000.0, 3.0), _result(slower, 3.0))
    assert code == 1 and rows["ops_per_s"] == "worse"

    code, rows = outcome(_result(slower, 3.0), _result(1000.0, 3.0))
    assert code == 0 and rows["ops_per_s"] == "better"

    code, rows = outcome(_result(1000.0, 3.0), _result(1000.0, 3.0 * (1 - 2 * bound["ops_per_vsec"])))
    assert code == 1 and rows["ops_per_vsec"] == "worse"

    noisy = 2 * bound["ops_per_s"]
    code, rows = outcome(_result(1000.0, 3.0), _result(slower, 3.0, spread=noisy))
    assert code == 0 and rows["ops_per_s"] == "unresolved"


@pytest.mark.parametrize("name", ["kv_write", "kv_fast_rw", "shard4_txn"])
def test_seed_changes_values_but_not_op_counts(name):
    def generated(seed):
        workload = workloads.WORKLOADS[name](seed, workloads.TINY_SIZES[name])
        workload.build()
        return [plan.ops for plan in workload.plans]

    one, again, two = generated(1), generated(1), generated(2)
    assert one == again
    assert one != two
    assert [len(ops) for ops in one] == [len(ops) for ops in two]
    assert [[op[0] for op in ops] for ops in one] == [[op[0] for op in ops] for ops in two]
