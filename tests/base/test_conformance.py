"""The conformance harness draws every argument kind a service can declare."""

import random

from repro.base.conformance import draw_script
from repro.util.xdr import I64, OPAQUE, STRING, XdrEncoder, array, declare_op, decode_op, fixed_opaque
from repro.util.xdr import handle, optional, tuple_of

OPS = {}
ID = handle(fixed_opaque(8), lambda index, generation: bytes([index, generation]) * 4)
declare_op(OPS, "LINK", ids=array(ID), pairs=array(tuple_of(STRING, I64)), note=optional(OPAQUE))


def test_array_optional_and_tuple_arguments_are_drawn():
    script = draw_script(OPS, random.Random(3), 5, 200)
    for op in script:
        assert decode_op(OPS, XdrEncoder.encode(op)) == ("LINK", op)
    ids = [oid for op in script for oid in op.ids]
    assert ids and {oid[2:] for oid in ids} == {oid[:2] * 3 for oid in ids}
    assert {(oid[0], oid[1]) for oid in ids} <= {(0, 0)} | {(i, g) for i in range(5) for g in range(4)}
    assert min(number for op in script for _, number in op.pairs) < 0
    assert {op.note is None for op in script} == {True, False}
