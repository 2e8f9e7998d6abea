"""Property-based conformance (``repro.base.conformance``): for *any* script
of declared NFS calls, invalid ones included, wrappers over the vendors agree
after every call, install through the inverse and survive a rebuild.  The
paper's determinism requirement, tested adversarially from a hypothesis ``Random``."""

import pytest
from hypothesis import HealthCheck, given, note, settings, strategies as st

from repro.base.conformance import check, draw_script
from repro.nfs.fileserver import BtrFS, Ext2FS, FFS, LogFS, MemFS
from repro.nfs.protocol import _CALL_REGISTRY, NFSERR_INVAL, MkdirCall, NfsReply, RenameCall
from repro.nfs.spec import NFSAbstractSpec, make_oid
from repro.nfs.wrapper import NFSConformanceWrapper
from repro.util.xdr import XdrEncoder

VENDORS = [MemFS, Ext2FS, FFS, LogFS, BtrFS]
N_OBJECTS = 16
SLOW_OK = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def vendor(impl, seed, clock=9.0, clock_skew=0.0):
    return lambda disk: NFSConformanceWrapper(
        impl(disk=disk, seed=seed, clock=lambda: clock, clock_skew=clock_skew),
        NFSAbstractSpec(N_OBJECTS),
        disk=disk,
    )


def conforms(factories, rng, length):
    script = draw_script(_CALL_REGISTRY, rng, N_OBJECTS, length)
    note(script)  # shown for a falsifying example
    return check(factories, script)


@settings(max_examples=40, **SLOW_OK)
@given(rng=st.randoms())
def test_vendors_agree_on_any_script(rng):
    factories = [vendor(impl, 31 * i + 7, clock_skew=0.1 * i) for i, impl in enumerate(VENDORS)]
    assert conforms(factories, rng, 15) is None


@settings(max_examples=25, **SLOW_OK)
@given(rng=st.randoms())
def test_transplant_after_any_script(rng):
    """Before every op of any script, the abstract state extracted from one
    vendor installs into a fresh wrapper over another, which then answers the
    rest of the script exactly as the source does."""
    assert conforms([vendor(MemFS, 5), vendor(LogFS, 99, clock=1.0)], rng, 12) is None


@settings(max_examples=25, **SLOW_OK)
@given(rng=st.randoms())
def test_rep_reconstruction_after_any_script(rng):
    """Saving the rep, rebooting the implementation from disk, and
    reconstructing must preserve the abstract state exactly (section 3.4),
    even for LogFS whose handles all go stale."""
    assert conforms([vendor(LogFS, 13)], rng, 12) is None



# -- a directory renamed into itself -------------------------------------------------

ROOT, A, B, C = (make_oid(0, 0), make_oid(1, 1), make_oid(2, 1), make_oid(3, 1))
INTO_ITSELF = [MkdirCall(ROOT, "a"), RenameCall(ROOT, "a", A, "a")]
INTO_A_GRANDCHILD = [
    MkdirCall(ROOT, "a"),
    MkdirCall(A, "b"),
    MkdirCall(B, "c"),
    RenameCall(ROOT, "a", C, "x"),
]
FACTORY_SETS = {
    **{impl.__name__: [vendor(impl, 7)] for impl in VENDORS},
    "all five": [vendor(impl, 31 * i + 7) for i, impl in enumerate(VENDORS)],
    "transplant": [vendor(MemFS, 5), vendor(LogFS, 99, clock=1.0)],
}


@pytest.mark.parametrize("script", [INTO_ITSELF, INTO_A_GRANDCHILD], ids=["itself", "grandchild"])
@pytest.mark.parametrize("factories", FACTORY_SETS.values(), ids=FACTORY_SETS.keys())
def test_a_directory_cannot_move_below_itself(factories, script):
    """Every vendor would cut the directory off from the root, where a
    rebuild from disk cannot find it; the wrapper refuses as rename(2) does."""
    assert check(factories, script) is None
    wrapper = factories[0]({})
    replies = [wrapper.execute(XdrEncoder.encode(op), "C0", 1000) for op in script]
    assert NfsReply.decode(replies[-1]).status == NFSERR_INVAL
