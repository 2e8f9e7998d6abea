"""The ``python -m repro`` / ``repro`` entry point."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bft.config import VARIANTS
from repro.explore.plan import make_overload_step

#: What the fast-path row adds to the speculation row, on its own: no row.
LEASES_ALONE = dict(
    VARIANTS["fast-path"].overrides.items() - VARIANTS["speculation"].overrides.items()
)


def test_andrew_runs_from_any_cwd(tmp_path, monkeypatch, capsys):
    """``repro andrew`` is library code, not a script found relative to the
    checkout: it runs from anywhere and prints the five phases and the total,
    whose overhead is in the paper's ballpark."""
    monkeypatch.chdir(tmp_path)
    assert main(["andrew", "1"]) == 0
    rows = [
        [cell.strip() for cell in line.split("|")]
        for line in capsys.readouterr().out.splitlines()
        if line.count("|") == 3
    ]
    assert [row[0] for row in rows[1:]] == ["mkdir", "copy", "scan", "read", "make", "total"]
    assert 1.0 < float(rows[-1][3]) < 2.5


def test_version_command(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out and out[0].isdigit()


def test_unknown_command_exits_2(capsys):
    for command in ("frobnicate", "analyze"):  # `analyze` was folded into `lint`
        assert main([command]) == 2
        assert "lint" in capsys.readouterr().out  # usage text mentions the linter


def test_lint_subcommand_is_wired(capsys):
    assert main(["lint", "--list-rules"]) == 0
    assert "DET001" in capsys.readouterr().out


def test_bench_subcommand_is_wired():
    # Usage errors surface as exit 2 without running any scenario.
    assert main(["bench", "--suite", "frobnicate"]) == 2


# -- repro explore / repro replay ----------------------------------------------------


def test_explore_clean_run_exits_0(tmp_path, capsys):
    out = tmp_path / "repro.json"
    code = main(
        ["explore", "--budget", "3", "--seed", "0", "--requests", "10",
         "--quiet", "--out", str(out)]
    )
    assert code == 0
    assert not out.exists()  # no violation, no artifact
    assert "held every safety oracle" in capsys.readouterr().out


def test_explore_planted_bug_exits_1_and_writes_artifact(tmp_path, capsys):
    out = tmp_path / "repro.json"
    code = main(
        ["explore", "--budget", "10", "--seed", "0", "--requests", "16",
         "--plant", "weak-prepare-quorum", "--quiet", "--out", str(out)]
    )
    assert code == 1
    assert out.is_file()
    text = capsys.readouterr().out
    assert "VIOLATION" in text and "repro replay" in text

    # The artifact replays to the same violation, exit code 1.
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert "reproduces the recorded violation exactly" in capsys.readouterr().out


def test_replay_of_benign_plan_exits_0(tmp_path, capsys):
    """An artifact whose plan no longer violates (e.g. recorded against a
    plant that is not applied) replays clean with exit 0."""
    from repro.explore.oracles import Violation
    from repro.explore.plan import generate_plan
    from repro.explore.shrink import write_artifact

    path = tmp_path / "benign.json"
    write_artifact(
        path,
        generate_plan(0, requests=8),
        Violation(oracle="prefix", detail="recorded elsewhere", time=1.0, event_index=5),
        plant=None,
    )
    assert main(["replay", str(path)]) == 0
    assert "no violation" in capsys.readouterr().out


def test_replay_shows_where_a_violating_plan_left_each_replica(capsys):
    """After a violation, ``repro replay`` prints one row per replica.  The
    open liveness violation at ``baseline-none-s1`` ends with all four
    replicas recovering and none having executed anything."""
    artifact = Path(__file__).resolve().parent / "explore/artifacts/baseline-none-s1.json"
    assert main(["replay", str(artifact)]) == 1
    rows = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("replay:   group 0 ")
    ]
    assert [row.split()[3] for row in rows] == ["R0:", "R1:", "R2:", "R3:"]
    for row in rows:
        assert "recovering=True" in row.split() and "last_executed=0" in row.split()


def test_replay_missing_artifact_exits_2(capsys):
    assert main(["replay", "/no/such/file.json"]) == 2
    assert "no such artifact" in capsys.readouterr().err


def _artifact(*steps, topology=""):
    """A version-1 explore artifact whose plan has the given steps."""
    plan = {"seed": 1, "requests": 4, "steps": list(steps)}
    if topology:
        plan["topology"] = topology
    return {"version": 1, "plan": plan, "violation": {}, "plant": None}


@pytest.mark.parametrize(
    "artifact, complaint",
    [
        pytest.param({"version": 99}, "version", id="version"),
        pytest.param(
            _artifact({"at": 0.1, "kind": "crash", "target": "R9"}),
            "unknown replica 'R9'",
            id="crash-R9",
        ),
        pytest.param(
            _artifact(
                {"at": 0.1, "kind": "overload", "rate": 0, "clients": 2, "duration": 1.0}
            ),
            "overload needs a rate",
            id="overload-rate-0",
        ),
        pytest.param(
            _artifact(
                {"at": 0.1, "kind": "region_outage", "region": "mars", "duration": 1.0},
                topology="wan3",
            ),
            "unknown region 'mars'",
            id="outage-of-mars",
        ),
        pytest.param(
            _artifact({"at": 0.1, "kind": "partition"}),
            "partition needs a groups",
            id="partition-no-groups",
        ),
        pytest.param(
            _artifact({"at": 0.1, "kind": "drop", "target": "R1", "durration": 1.0}),
            "durration",
            id="misspelt-key",
        ),
        pytest.param(
            dict(_artifact({"at": 0.1, "kind": "heal"}), shards=2,
                 config_overrides=VARIANTS["pipelined"].overrides),
            "a sharded deployment does not support [\"variant 'pipelined'\"]",
            id="sharded-variant",
        ),
        pytest.param(
            dict(_artifact({"at": 0.1, "kind": "heal"}), config_overrides={"pipeline_dept": 8}),
            "none of the variants",
            id="misspelt-override",
        ),
        pytest.param(
            dict(_artifact({"at": 0.1, "kind": "heal"}), plant="no-such-plant"),
            "planted bug 'no-such-plant'",
            id="unknown-plant",
        ),
        pytest.param(
            dict(_artifact({"at": 0.1, "kind": "heal"}), config_overrides=LEASES_ALONE),
            "none of the variants",
            id="leases-alone",
        ),
        pytest.param(
            dict(_artifact({"at": 0.1, "kind": "heal"}), shards=0),
            "shards must be >= 1, not 0",
            id="zero-shards",
        ),
        pytest.param(
            dict(_artifact({"at": 0.1, "kind": "heal"}), shards=-1),
            "shards must be >= 1, not -1",
            id="negative-shards",
        ),
        pytest.param(
            # Back to back: the second episode starts the instant the first
            # ends, which used to raise mid-run.
            _artifact(
                make_overload_step(at=0.1).to_dict(), make_overload_step(at=1.6).to_dict()
            ),
            "overload episodes at t=0.1 and t=1.6 overlap",
            id="overlapping-overloads",
        ),
        pytest.param(
            # Used to replay "SLO held": a zero-width window judges nothing.
            dict(_artifact(), slo={"window": 0, "availability_floor": 0.99,
                                   "max_outage_span": 90, "assumption_margin": 30},
                 op_timeout=8.0, gap=1.0, outcome={}),
            "SLO needs window > 0",
            id="soak-zero-window",
        ),
    ],
)
def test_replay_malformed_artifact_exits_2(
    artifact, complaint, tmp_path, capsys, monkeypatch
):
    """Refused with exit 2 before any cluster is built — not run (the R9
    crash, the group-less partition and the leases-only overrides used to
    replay clean, the misspelt key to a default, a shard count below one as
    one group), not a traceback with the violation exit code."""
    import repro.explore.runner as runner

    monkeypatch.setattr(runner, "recording_cluster", None)  # calling it fails
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(artifact))
    assert main(["replay", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("replay: malformed artifact: ") and complaint in err


def test_replay_does_not_swallow_an_error_from_the_run(tmp_path, monkeypatch):
    """Only a refusal *before* the run is a usage error: a ``ValueError``
    raised once clusters are being built is a bug and must surface."""
    import repro.explore.runner as runner

    def broken(*_args, **_kwargs):
        raise ValueError("raised after the run started")

    monkeypatch.setattr(runner, "recording_cluster", broken)
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(_artifact({"at": 0.1, "kind": "heal"})))
    with pytest.raises(ValueError, match="after the run started"):
        main(["replay", str(path)])


@pytest.mark.parametrize(
    "flags,plant,seed",
    [
        (["--variant", "fast-path"], "blind-checkpoint-certs", "1"),
        (["--check-interval", "7"], "weak-prepare-quorum", "0"),
    ],
)
def test_artifact_replays_under_its_recorded_configuration(
    flags, plant, seed, tmp_path, capsys
):
    """``repro replay`` takes no configuration flags: the artifact records
    the non-default options of the run that wrote it, and a replay under
    them reproduces the violation down to the event index."""
    out = tmp_path / "repro.json"
    code = main(
        ["explore", "--budget", "10", "--seed", seed, "--requests", "16",
         "--plant", plant, "--quiet", "--out", str(out)] + flags
    )
    assert code == 1
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert "reproduces the recorded violation exactly" in capsys.readouterr().out
    assert main(["replay", str(out), "--variant", "fast-path"]) == 2  # the flags are gone
    assert main(["replay", str(out), "--check-interval", "7"]) == 2


def test_explore_usage_error_exits_2(capsys):
    assert main(["explore", "--budget", "0"]) == 2
    assert main(["explore", "--fast-path"]) == 2  # now --variant fast-path
    assert main(["explore", "--shards", "0"]) == 2
    assert "shards must be >= 1" in capsys.readouterr().err
    # Each used to run: fault-free plans, or an interval the suite clamped to
    # 1 while the artifact recorded the value as given.
    for flags in (["--max-steps", "-1"], ["--check-interval", "0"], ["--check-interval", "-3"]):
        assert main(["explore"] + flags) == 2, flags
        assert "--max-steps >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--shards", "2", "--family", "implementation"],
        ["--shards", "2", "--family", "overload"],
        ["--shards", "2", "--variant", "speculation"],
        ["--family", "destruction"],
        ["--plant", "split-brain-decide"],
        ["--shards", "2", "--plant", "weak-prepare-quorum"],
    ],
)
def test_explore_rejects_what_the_deployment_cannot_run(flags, capsys):
    assert main(["explore", "--budget", "1"] + flags) == 2
    assert "deployment" in capsys.readouterr().err
