"""Replicated OODB (E12): same nondeterministic implementation everywhere,
identical abstract state."""

import pytest

from repro.bft.config import BFTConfig
from repro.oodb import AOid, OODBDeployment, OODBError
from repro.oodb.spec import (
    AbstractDBObject,
    AbstractRef,
    OODBReply,
    OODB_OK,
    OODB_STALE,
    ROOT_AOID,
    encode_classof,
    encode_del,
    encode_find,
    encode_free,
    encode_get,
    encode_new,
    encode_set,
    is_read_only_op,
    make_aoid,
    parse_aoid,
)

A1 = make_aoid(1, 1)
ATTRS = {"name": "x", "n": -7, "blob": b"\x00\x01", "ref": AbstractRef(make_aoid(3, 1))}
ATTRS_HEX = (
    "00000004"
    "00000004626c6f62" "00000002" "0000000200010000"
    "000000016e000000" "00000000" "fffffffffffffff9"
    "000000046e616d65" "00000001" "0000000178000000"
    "0000000372656600" "00000003" "0000000300000001"
)

#: The seven ops (SET with each of the four value types) and the bytes they
#: have always had.  Entries are never edited.
GOLDEN_OPS = [
    (encode_new("Person"), "000000034e45570000000006506572736f6e0000"),
    (encode_free(A1), "00000004465245450000000100000001"),
    (encode_set(A1, "n", -7),
     "00000003534554000000000100000001000000016e00000000000000fffffffffffffff9"),
    (encode_set(A1, "name", "barbara"),
     "00000003534554000000000100000001000000046e616d6500000001000000076261726261726100"),
    (encode_set(A1, "blob", b"\x00\x01\x02"),
     "0000000353455400000000010000000100000004626c6f62000000020000000300010200"),
    (encode_set(ROOT_AOID, "first", AbstractRef(A1)),
     "00000003534554000000000000000000000000056669727374000000000000030000000100000001"),
    (encode_del(A1, "name"), "0000000344454c000000000100000001000000046e616d65"),
    (encode_get(A1), "00000003474554000000000100000001"),
    (encode_classof(A1), "00000007434c4153534f46000000000100000001"),
    (encode_find("Person"), "0000000446494e4400000006506572736f6e0000"),
]

GOLDEN_RECORDS = [
    (OODBReply(), "00" * 28),
    (OODBReply(status=OODB_STALE), "00000001" + "00" * 24),
    (OODBReply(status=OODB_OK, aoid=A1, class_name="Person", attrs=ATTRS, mtime=123,
               matches=[A1, make_aoid(2, 5)]),
     "00000000" "000000080000000100000001" "00000006506572736f6e0000" "000000000000007b"
     + ATTRS_HEX + "00000002" "0000000100000001" "0000000200000005"),
    (AbstractDBObject(generation=9), "0000000900000000"),
    (AbstractDBObject(generation=2, class_name="Person", attrs=ATTRS, mtime=123),
     "00000002" "00000006506572736f6e0000" "000000000000007b" + ATTRS_HEX),
]


@pytest.fixture
def dep():
    return OODBDeployment(
        config=BFTConfig(checkpoint_interval=8, log_window=16), num_objects=32
    )


def roots(dep):
    return {
        rid: dep.cluster.service(rid).current_node(0, 0)[1] for rid in dep.cluster.hosts
    }


class TestSpecEncoding:
    def test_abstract_object_roundtrip(self):
        obj = AbstractDBObject(
            generation=2,
            class_name="Person",
            attrs={"name": "x", "n": 7, "blob": b"\x00\x01", "ref": AbstractRef(make_aoid(3, 1))},
            mtime=123,
        )
        assert AbstractDBObject.decode(obj.encode()) == obj

    def test_null_roundtrip(self):
        obj = AbstractDBObject(generation=9)
        out = AbstractDBObject.decode(obj.encode())
        assert out.is_null and out.generation == 9

    def test_attr_order_is_canonical(self):
        a = AbstractDBObject(generation=1, class_name="C", attrs={"b": 1, "a": 2})
        b = AbstractDBObject(generation=1, class_name="C", attrs={"a": 2, "b": 1})
        assert a.encode() == b.encode()

    def test_bytes_match_the_parent_commit(self):
        assert make_aoid(42, 7).hex() == "0000002a00000007"
        for op, golden in GOLDEN_OPS:
            assert op.hex() == golden
        for record, golden in GOLDEN_RECORDS:
            assert record.encode().hex() == golden, record
            assert type(record).decode(bytes.fromhex(golden)) == record

    def test_read_only_classification(self):
        assert is_read_only_op(encode_get(make_aoid(0, 0)))
        assert not is_read_only_op(encode_new("X"))
        assert not is_read_only_op(encode_set(make_aoid(0, 0), "k", 1))


class TestReplicatedDatabase:
    def test_object_graph_operations(self, dep):
        db = dep.client("C0")
        person = db.new("Person")
        db.set(person, "name", "barbara")
        db.set(db.root, "first", person)
        friend = db.new("Person")
        db.set(person, "friend", friend)
        got = db.get(person)
        assert got["name"] == "barbara"
        assert got["friend"] == friend
        assert db.class_of(person) == "Person"

    def test_aoids_deterministic_despite_random_handles(self, dep):
        db = dep.client("C0")
        first = db.new("A")
        second = db.new("B")
        assert parse_aoid(first.raw) == (1, 1)
        assert parse_aoid(second.raw) == (2, 1)
        w0, w1 = dep.wrapper("R0"), dep.wrapper("R1")
        assert w0.handles[1] != w1.handles[1]  # concrete divergence

    def test_abstract_state_converges(self, dep):
        db = dep.client("C0")
        objs = [db.new("Node") for _ in range(5)]
        for i, obj in enumerate(objs):
            db.set(obj, "i", i)
            if i:
                db.set(objs[i - 1], "next", obj)
        dep.sim.run_for(1.0)
        assert len(set(roots(dep).values())) == 1

    def test_free_and_index_reuse(self, dep):
        db = dep.client("C0")
        a = db.new("A")
        db.free(a)
        b = db.new("B")
        assert parse_aoid(b.raw) == (1, 2)  # reused index, bumped generation
        with pytest.raises(OODBError) as exc:
            db.get(a)
        assert exc.value.status == OODB_STALE

    def test_stale_reference_rejected(self, dep):
        db = dep.client("C0")
        a = db.new("A")
        b = db.new("B")
        db.free(b)
        with pytest.raises(OODBError):
            db.set(a, "r", b)

    def test_delete_attr(self, dep):
        db = dep.client("C0")
        a = db.new("A")
        db.set(a, "k", 1)
        db.delete_attr(a, "k")
        assert "k" not in db.get(a)

    def test_reads_use_read_only_path(self, dep):
        db = dep.client("C0")
        a = db.new("A")
        db.set(a, "k", 5)
        before = [r.last_executed for r in dep.cluster.replicas]
        db.get(a)
        db.class_of(a)
        dep.sim.run_for(0.5)
        after = [r.last_executed for r in dep.cluster.replicas]
        assert before == after  # no ordering traffic for reads

    def test_recovery_converges(self, dep):
        db = dep.client("C0")
        node = db.new("Node")
        for i in range(12):
            db.set(node, f"k{i}", i)
        dep.sim.run_for(1.0)
        host = dep.cluster.hosts["R1"]
        assert dep.cluster.recover("R1")
        dep.sim.run_for(5.0)
        assert host.replica.counters.get("recoveries_completed") == 1
        assert len(set(roots(dep).values())) == 1
        assert db.get(node)["k3"] == 3

    def test_corruption_healed(self, dep):
        db = dep.client("C0")
        node = db.new("Node")
        db.set(node, "precious", b"SAFE")
        dep.sim.run_for(1.0)
        heap = dep.cluster.disks["R0"]["thor:heap"]
        victim = dep.wrapper("R0").handles[1]
        heap[victim]["attrs"]["precious"] = b"EVIL"
        host = dep.cluster.hosts["R0"]
        dep.cluster.recover("R0")
        dep.sim.run_for(5.0)
        assert host.replica.counters.get("objects_fetched") >= 1
        assert len(set(roots(dep).values())) == 1

    def test_find_returns_class_extent_in_stable_order(self, dep):
        db = dep.client("C0")
        people = [db.new("Person") for _ in range(3)]
        db.new("Dog")
        found = db.find("Person")
        assert found == people  # creation-index order, not heap order
        assert db.find("Dog") != []
        assert db.find("Unicorn") == []

    def test_find_excludes_freed_objects(self, dep):
        db = dep.client("C0")
        keep = db.new("Person")
        gone = db.new("Person")
        db.free(gone)
        assert db.find("Person") == [keep]

    def test_find_is_read_only(self, dep):
        db = dep.client("C0")
        db.new("Person")
        before = [r.last_executed for r in dep.cluster.replicas]
        db.find("Person")
        dep.sim.run_for(0.5)
        assert [r.last_executed for r in dep.cluster.replicas] == before

    def test_crash_masked(self, dep):
        db = dep.client("C0")
        dep.cluster.crash("R3")
        node = db.new("Node")
        db.set(node, "v", 1)
        assert db.get(node)["v"] == 1
