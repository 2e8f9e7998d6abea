"""The support matrix: every (deployment, variant, family) cell ``repro
explore`` can be asked for, runnable or refused, the one function that
decides a cell, and the runnable cells run at two plans each."""

import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bft.config import VARIANTS
from repro.explore.interpreter import (
    KEPT_OUT,
    OPT_IN_FAMILIES,
    SHARDED,
    PlanError,
    families,
    not_supported,
    support_matrix,
)
from repro.explore.plan import generate_plan
from repro.explore.runner import explore

MATRIX = support_matrix()
ROOT = Path(__file__).resolve().parents[2]


def _shards(cell):
    return 2 if cell.deployment == SHARDED else 1


def _flags(cell):
    family = ["--family", cell.family] if cell.family else []
    return ["--shards", str(_shards(cell)), "--variant", cell.variant] + family


def _id(cell):
    return f"{cell.deployment}-{cell.variant}-{cell.family or 'none'}"


def test_the_matrix_is_every_deployment_variant_and_family():
    assert len(MATRIX) == 2 * len(VARIANTS) * (1 + len(OPT_IN_FAMILIES)) == 32
    assert len({(c.deployment, c.variant, c.family) for c in MATRIX}) == 32
    runnable = [c for c in MATRIX if not c.refused]
    assert len(runnable) == 14
    assert {(c.deployment, c.variant, c.family) for c in MATRIX if c.kept_out} == set(KEPT_OUT)
    assert all(not c.refused for c in MATRIX if c.kept_out)


@pytest.mark.parametrize("family", OPT_IN_FAMILIES)
def test_every_plan_of_a_family_has_a_step_of_it(family):
    for seed in range(200):
        assert family in families(generate_plan(seed, family=family)), seed


def test_an_unknown_family_is_refused():
    with pytest.raises(ValueError, match="unknown family 'campaign'"):
        generate_plan(0, family="campaign")


@pytest.mark.parametrize("cell", [c for c in MATRIX if c.refused], ids=_id)
def test_a_refused_cell_exits_2_with_the_matrix_reason(cell, capsys):
    assert main(["explore", "--budget", "1"] + _flags(cell)) == 2
    assert not_supported(cell.deployment, cell.refused) in capsys.readouterr().err
    with pytest.raises(PlanError):
        explore(budget=1, variant=cell.variant, family=cell.family, shards=_shards(cell))


@pytest.mark.parametrize("flag", ["--impl-faults", "--overload", "--destroy-group"])
def test_the_old_family_flags_are_usage_errors(flag):
    assert main(["explore", "--budget", "1", flag]) == 2


def test_every_kept_out_cell_names_an_artifact_that_exists():
    for artifact in KEPT_OUT.values():
        assert (ROOT / artifact).is_file(), artifact


def test_the_documented_table_is_the_support_matrix():
    """docs/simulation.md, "Support matrix": every cell, compared with the
    cell it describes, in order."""
    section = (ROOT / "docs" / "simulation.md").read_text().split("### Support matrix")[1]
    table = section.split("| deployment | variant | family |")[1].split("\n\n")[0]
    documented = []
    for line in table.strip().splitlines()[2:]:  # past the header's tail and the rule
        cells = [re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")]
        (deployment,), (variant,), family, refused, kept_out = cells
        documented.append(
            (deployment, variant, family[0] if family else None, tuple(refused),
             kept_out[0] if kept_out else "")
        )
    assert documented == [
        (c.deployment, c.variant, c.family, c.refused, c.kept_out) for c in MATRIX
    ]


@pytest.mark.parametrize(
    "cell", [c for c in MATRIX if not c.refused and not c.kept_out], ids=_id
)
def test_a_cell_ci_runs_holds_for_two_plans(cell):
    """The first two plans of the cell's CI run (same seed and requests)."""
    result = explore(
        budget=2,
        requests=16,
        shrink=False,
        variant=cell.variant,
        family=cell.family,
        shards=_shards(cell),
    )
    assert not result.found, result.violation
