"""Property-based OODB conformance: any script of declared database ops run
through wrappers over differently-seeded ThorDB instances agrees after every
op, installs through the inverse and survives a rebuild
(``repro.base.conformance``)."""

from hypothesis import HealthCheck, given, note, settings, strategies as st

from repro.base.conformance import check, draw_script
from repro.oodb.db import ThorDB
from repro.oodb.spec import OPS, OODBAbstractSpec
from repro.oodb.wrapper import OODBConformanceWrapper

N_OBJECTS = 12
SLOW_OK = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def thordb(seed):
    return lambda disk: OODBConformanceWrapper(
        ThorDB(disk=disk, seed=seed), OODBAbstractSpec(N_OBJECTS), disk=disk
    )


def conforms(seeds, rng, length):
    script = draw_script(OPS, rng, N_OBJECTS, length)
    note(script)  # shown for a falsifying example
    return check([thordb(seed) for seed in seeds], script)


@settings(max_examples=50, **SLOW_OK)
@given(rng=st.randoms())
def test_oodb_wrappers_agree_on_any_script(rng):
    assert conforms([1000, 1037], rng, 20) is None


@settings(max_examples=30, **SLOW_OK)
@given(rng=st.randoms())
def test_oodb_transplant_after_any_script(rng):
    assert conforms([1000, 1037], rng, 15) is None


@settings(max_examples=30, **SLOW_OK)
@given(rng=st.randoms())
def test_oodb_reconstruction_after_any_script(rng):
    assert conforms([55], rng, 15) is None
