"""Service-level companion to ``test_decoder_robustness.py``: a client is
authenticated, not trusted, and its operation bytes reach ``execute`` at
every correct replica at the same sequence number — so ``execute`` must
never raise on them.  A malformed op gets one deterministic error reply and
changes no abstract object.
"""

from hypothesis import given, settings, strategies as st

from repro.bft.config import BFTConfig
from repro.bft.testing import KVStateMachine, encode_append, encode_get, encode_set, kv_cluster
from repro.bft.txn import encode_txn_decide, encode_txn_prepare
from repro.oodb import OODBDeployment
from repro.oodb.spec import (
    AbstractRef,
    OODBReply,
    OODB_BADOP,
    ROOT_AOID,
    encode_classof,
    encode_del,
    encode_find,
    encode_free,
    encode_get as oodb_get,
    encode_new,
    encode_set as oodb_set,
    make_aoid,
)
from repro.util.xdr import XdrEncoder

from tests.conftest import assert_converged
from tests.oodb.test_wrapper_edges import make_wrapper


def damaged(valid_ops):
    """Arbitrary bytes, plus valid ops cut short, extended or with one byte
    replaced — damage that gets past the command name."""
    valid = st.sampled_from(valid_ops)
    cut = st.builds(lambda op, at: op[: at % (len(op) + 1)], valid, st.integers(0, 200))
    extended = st.builds(lambda op, tail: op + tail, valid, st.binary(max_size=8))

    def replace(op, at, byte):
        at %= len(op)
        return op[:at] + bytes([byte]) + op[at + 1 :]

    flipped = st.builds(replace, valid, st.integers(0, 200), st.integers(0, 255))
    return st.one_of(st.binary(max_size=64), valid, cut, extended, flipped)


#: Bytes after an op's last argument: 1-4 of them, a whole XDR word and not.
TAILS = (b"\x00", b"\x07", b"\x00\x00", b"\x00\x00\x07", b"\x00\x00\x00\x00", b"\x00\x00\x00\x07")

# -- the KV service ------------------------------------------------------------

KV_OPS = [
    encode_set(3, b"value"),
    encode_append(3, b"more"),
    encode_get(3),
    encode_set(2**32 - 1, b"far"),
    XdrEncoder().pack_string("NOPE").pack_u32(1).pack_opaque(b"x").getvalue(),
    XdrEncoder().pack_opaque(b"\xff\xfe").pack_u32(1).getvalue(),  # command is not UTF-8
    encode_txn_prepare("C0:1", [(1, b"a"), (2, b"b")]),
    encode_txn_decide("C0:1", True, [(0, ["R0", "R1"])]),
    encode_txn_decide("C0:2", False),
]


def _kv_probe(service, op, read_only=False):
    """Execute one op between two checkpoints: (reply, root before, root
    after, whether any object was COW-copied i.e. ``modify`` was called)."""
    seqno = len(service.manager.checkpoint_seqnos()) + 1
    before = service.manager.take_checkpoint(seqno)
    copies = service.manager.counters.get("cow_copies")
    reply = service.execute(op, "C0", b"", read_only=read_only)
    modified = service.manager.counters.get("cow_copies") != copies
    return reply, before, service.manager.take_checkpoint(seqno + 1), modified


@settings(max_examples=300, deadline=None)
@given(op=damaged(KV_OPS), transactional=st.booleans(), read_only=st.booleans())
def test_kv_execute_never_raises(op, transactional, read_only):
    service = KVStateMachine(num_slots=8, transactional=transactional)
    reply, before, after, modified = _kv_probe(service, op, read_only)
    assert isinstance(reply, bytes)
    if reply.startswith(b"ERR"):
        assert not modified and after == before
    if read_only:
        assert not modified and after == before


def test_kv_malformed_op_is_answered_not_raised():
    service = KVStateMachine(num_slots=8)
    for op in (
        b"",
        b"\xff\xff\xff\xff garbage",
        encode_set(3, b"value")[:-1],  # truncated value
        encode_set(3, b"value")[:11],  # no value at all
        encode_get(3)[:9],  # truncated index
        XdrEncoder().pack_opaque(b"\xff\xfe").pack_u32(1).getvalue(),
        # Bytes after the last argument, on a mutation and on a read-only op.
        *(encode_set(3, b"value") + tail for tail in TAILS),
        *(encode_append(3, b"more") + tail for tail in TAILS),
        *(encode_get(3) + tail for tail in TAILS),
    ):
        for read_only in (False, True):
            reply, before, after, modified = _kv_probe(service, op, read_only)
            assert reply == b"ERR malformed", op
            assert not modified and after == before
    assert service.executed_ops == 0
    # An unknown command is well-formed: it keeps its own reply, and (unlike
    # before) is refused before the object is marked modified.
    unknown = XdrEncoder().pack_string("NOPE").pack_u32(1).pack_opaque(b"x").getvalue()
    reply, before, after, modified = _kv_probe(service, unknown)
    assert reply == b"ERR unknown command" and not modified and after == before


def test_malformed_kv_op_does_not_kill_the_cluster():
    """The reproduction: at the parent this raised XdrError out of
    ``Replica._execute_batch`` at every replica."""
    cluster = kv_cluster(config=BFTConfig(checkpoint_interval=4, log_window=8))
    client = cluster.client("C0")
    assert client.invoke(encode_set(1, b"before")) == b"OK"
    cells = {rid: list(cluster.service(rid).cells) for rid in cluster.hosts}
    assert client.invoke(b"\xff\xff\xff\xff garbage") == b"ERR malformed"
    assert {rid: list(cluster.service(rid).cells) for rid in cluster.hosts} == cells
    assert client.invoke(encode_set(2, b"after")) == b"OK"
    assert client.invoke(encode_get(1), read_only=True) == b"before"
    for index in range(4):  # past a checkpoint, so the roots are compared
        assert client.invoke(encode_set(3, b"%d" % index)) == b"OK"
    assert_converged(cluster)
    roots = {cluster.service(rid).manager.root_digest(4) for rid in cluster.hosts}
    assert len(roots) == 1 and None not in roots


# -- the OODB wrapper ----------------------------------------------------------

_A1 = make_aoid(1, 1)
OODB_OPS = [
    encode_new("Person"),
    encode_free(_A1),
    oodb_set(_A1, "name", "barbara"),
    oodb_set(_A1, "n", -7),
    oodb_set(_A1, "blob", b"\x00\x01"),
    oodb_set(ROOT_AOID, "first", AbstractRef(_A1)),
    encode_del(_A1, "name"),
    oodb_get(_A1),
    encode_classof(_A1),
    encode_find("Person"),
]


def _oodb_wrapper():
    wrapper = make_wrapper()
    created = OODBReply.decode(wrapper.execute(encode_new("Person"), "C0", 1))
    assert created.aoid == _A1
    wrapper.execute(oodb_set(_A1, "name", "barbara"), "C0", 2)
    return wrapper


def _oodb_probe(wrapper, op, read_only=False):
    """(reply, indices passed to ``modify``, abstract state changed?)."""
    modified = []
    wrapper.set_modify_callback(modified.append)
    before = [wrapper.get_obj(index) for index in range(wrapper.spec.num_objects)]
    reply = OODBReply.decode(wrapper.execute(op, "C0", 3, read_only))
    after = [wrapper.get_obj(index) for index in range(wrapper.spec.num_objects)]
    return reply, modified, before != after


@settings(max_examples=300, deadline=None)
@given(op=damaged(OODB_OPS), read_only=st.booleans())
def test_oodb_execute_never_raises(op, read_only):
    reply, modified, changed = _oodb_probe(_oodb_wrapper(), op, read_only)
    if reply.status == OODB_BADOP or read_only:
        assert modified == [] and not changed
    if changed:
        assert modified  # no mutation without the modify upcall


def test_oodb_truncated_arguments_are_bad_ops():
    """The reproduction: the command name alone, for every command."""
    wrapper = _oodb_wrapper()
    for command in ("NEW", "FREE", "SET", "GET", "DEL", "FIND", "CLASSOF"):
        op = XdrEncoder().pack_string(command).getvalue()
        reply, modified, changed = _oodb_probe(wrapper, op)
        assert reply.status == OODB_BADOP, command
        assert modified == [] and not changed
    for op in (
        oodb_set(_A1, "name", "x")[:-1],  # value cut short
        oodb_set(_A1, "n", 5)[:-12] + XdrEncoder().pack_u32(99).getvalue(),  # unknown value tag
        encode_del(_A1, "name")[:-3],
        XdrEncoder().pack_string("NEW").pack_opaque(b"\xff\xfe").getvalue(),  # class not UTF-8
        # Bytes after the last argument, on every mutation and read-only op.
        *(op + tail for op in OODB_OPS for tail in TAILS),
    ):
        for read_only in (False, True):
            reply, modified, changed = _oodb_probe(wrapper, op, read_only)
            assert reply.status == OODB_BADOP, op
            assert modified == [] and not changed


def test_truncated_oodb_op_does_not_kill_the_cluster():
    dep = OODBDeployment(config=BFTConfig(checkpoint_interval=4, log_window=8), num_objects=8)
    db = dep.client("C0")
    person = db.new("Person")
    truncated = XdrEncoder().pack_string("SET").getvalue()
    reply = OODBReply.decode(db.bft_client.invoke(truncated))
    assert reply.status == OODB_BADOP
    db.set(person, "name", "barbara")
    assert db.get(person) == {"name": "barbara"}
    for index in range(4):
        db.set(person, "n", index)
    dep.sim.run_for(1.0)
    roots = {dep.cluster.service(rid).manager.root_digest(4) for rid in dep.cluster.hosts}
    assert len(roots) == 1 and None not in roots
