"""BFT configuration invariants, and the table of protocol variants."""

import re
from pathlib import Path

import pytest

from repro.bft.config import SHARDED, SINGLE, SOAK, VARIANTS, BFTConfig, variant_of
from repro.util.errors import ConfigurationError


def test_default_is_f1_n4():
    config = BFTConfig()
    assert config.n == 4
    assert config.f == 1
    assert config.quorum == 3
    assert config.weak_quorum == 2


def test_n_must_cover_f():
    with pytest.raises(ConfigurationError):
        BFTConfig(replica_ids=["R0", "R1", "R2"], f=1)


def test_seven_replicas_tolerate_two_faults():
    config = BFTConfig(replica_ids=[f"R{i}" for i in range(7)], f=2)
    assert config.quorum == 5


def test_primary_rotates_round_robin():
    config = BFTConfig()
    assert [config.primary(v) for v in range(5)] == ["R0", "R1", "R2", "R3", "R0"]


def test_duplicate_ids_rejected():
    with pytest.raises(ConfigurationError):
        BFTConfig(replica_ids=["R0", "R0", "R1", "R2"])


def test_log_window_must_cover_two_checkpoints():
    with pytest.raises(ConfigurationError):
        BFTConfig(checkpoint_interval=16, log_window=16)


def test_checkpoint_interval_positive():
    with pytest.raises(ConfigurationError):
        BFTConfig(checkpoint_interval=0)


def test_replica_index():
    config = BFTConfig()
    assert config.replica_index("R2") == 2


def test_variants_are_a_ladder():
    """Every row is a valid configuration and turns on exactly one more
    field than the row before it, starting from the plain protocol; that
    field alone, without the rungs under it, is no row."""
    rows = list(VARIANTS.values())
    assert list(VARIANTS)[0] == "baseline" and rows[0].overrides == {}
    for row in rows:
        BFTConfig(**row.overrides)
    for previous, row in zip(rows, rows[1:]):
        assert previous.overrides.items() < row.overrides.items()
        assert len(row.overrides) == len(previous.overrides) + 1
        if previous.overrides:
            assert variant_of(dict(row.overrides.items() - previous.overrides.items())) is None
    assert all(row.deployments <= {SINGLE, SHARDED, SOAK} for row in rows)
    assert {name: variant_of(row.overrides) for name, row in VARIANTS.items()} == {
        name: name for name in VARIANTS
    }
    assert variant_of(None) == "baseline"


def test_the_documented_table_is_the_variant_table():
    """docs/simulation.md, "Protocol variants": every cell, compared with the
    row it describes."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "simulation.md"
    section = doc.read_text().split("### Protocol variants")[1]
    table = section.split("| name | overrides | deployments |")[1].split("\n\n")[0]
    documented = {}
    for line in table.strip().splitlines()[1:]:  # past the rule
        name, overrides, deployments = (cell.strip() for cell in line.strip("|").split("|"))
        documented[name.strip("`")] = (
            dict(re.findall(r"`(\w+)=(\w+)`", overrides)),
            set(re.findall(r"`(\w+)`", deployments)),
        )
    assert list(documented) == list(VARIANTS)
    assert documented == {
        name: ({k: str(v) for k, v in row.overrides.items()}, set(row.deployments))
        for name, row in VARIANTS.items()
    }
