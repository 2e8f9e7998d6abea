"""Abstract specification: oids, object encodings, initial state."""

import pytest
from hypothesis import given, strategies as st

from repro.nfs.protocol import NFDIR, NFLNK, NFNON, NFREG
from repro.nfs.spec import (
    AbstractMeta,
    AbstractObject,
    NFSAbstractSpec,
    ROOT_OID,
    make_oid,
    null_object,
    parse_oid,
)
from repro.util.xdr import XdrDecoder, XdrEncoder

META = AbstractMeta(mode=0o644, uid=1, gid=2, mtime=10, ctime=2**40)
META_HEX = "000001a40000000100000002000000000000000a0000010000000000"

#: One abstract object of each type and the bytes it has always had (the
#: bytes checkpoint digests are taken over).  Entries are never edited.
GOLDEN_OBJECTS = [
    (null_object(5),
     "0000000000000005"),
    (AbstractObject(ftype=NFREG, generation=3, meta=META, data=b"contents!"),
     "0000000100000003" + META_HEX + "00000009636f6e74656e747321000000"),
    (AbstractObject(ftype=NFDIR, generation=1, meta=META,
                    entries=[("alpha", make_oid(3, 1)), ("zeta", make_oid(2, 1))]),
     "0000000200000001" + META_HEX + "00000002"
     "00000005616c706861000000" "0000000300000001" "000000047a657461" "0000000200000001"),
    (AbstractObject(ftype=NFLNK, generation=2, meta=META, target="/a/b"),
     "0000000500000002" + META_HEX + "000000042f612f62"),
]


class TestOid:
    def test_roundtrip(self):
        assert parse_oid(make_oid(42, 7)) == (42, 7)

    def test_root_oid(self):
        assert parse_oid(ROOT_OID) == (0, 0)

    def test_bytes_match_the_parent_commit(self):
        assert make_oid(42, 7).hex() == "0000002a00000007"

    def test_oid_is_eight_bytes(self):
        assert len(make_oid(1, 1)) == 8

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, index, generation):
        assert parse_oid(make_oid(index, generation)) == (index, generation)


class TestAbstractObject:
    def test_null_roundtrip(self):
        obj = null_object(5)
        out = AbstractObject.decode(obj.encode())
        assert out.ftype == NFNON
        assert out.generation == 5

    def test_file_roundtrip(self):
        obj = AbstractObject(
            ftype=NFREG,
            generation=3,
            meta=AbstractMeta(mode=0o644, uid=1, gid=2, mtime=10, ctime=11),
            data=b"contents",
        )
        assert AbstractObject.decode(obj.encode()) == obj

    def test_directory_entries_are_canonically_sorted(self):
        a = AbstractObject(
            ftype=NFDIR,
            generation=1,
            entries=[("zeta", make_oid(2, 1)), ("alpha", make_oid(3, 1))],
        )
        b = AbstractObject(
            ftype=NFDIR,
            generation=1,
            entries=[("alpha", make_oid(3, 1)), ("zeta", make_oid(2, 1))],
        )
        assert a.encode() == b.encode()  # encoding sorts lexicographically
        decoded = AbstractObject.decode(a.encode())
        assert [name for name, _ in decoded.entries] == ["alpha", "zeta"]

    def test_symlink_roundtrip(self):
        obj = AbstractObject(ftype=NFLNK, generation=2, target="/a/b")
        assert AbstractObject.decode(obj.encode()) == obj

    def test_bytes_match_the_parent_commit(self):
        for obj, golden in GOLDEN_OBJECTS:
            assert obj.encode().hex() == golden, obj
            assert AbstractObject.decode(bytes.fromhex(golden)) == obj

    def test_meta_bytes_match_the_parent_commit(self):
        enc = XdrEncoder()
        META.pack(enc)
        assert enc.getvalue().hex() == META_HEX
        assert AbstractMeta.unpack(XdrDecoder(enc.getvalue())) == META

    def test_distinct_generations_encode_differently(self):
        assert null_object(1).encode() != null_object(2).encode()


class TestSpec:
    def test_initial_root_is_empty_dir(self):
        spec = NFSAbstractSpec(num_objects=16)
        root = AbstractObject.decode(spec.initial_object(0))
        assert root.ftype == NFDIR
        assert root.entries == []
        assert root.generation == 0

    def test_initial_non_root_is_null(self):
        spec = NFSAbstractSpec(num_objects=16)
        for index in (1, 7, 15):
            obj = AbstractObject.decode(spec.initial_object(index))
            assert obj.ftype == NFNON

    def test_initial_state_is_identical_across_instances(self):
        a = NFSAbstractSpec(num_objects=8)
        b = NFSAbstractSpec(num_objects=8)
        assert [a.initial_object(i) for i in range(8)] == [
            b.initial_object(i) for i in range(8)
        ]

    def test_validate_rejects_garbage(self):
        spec = NFSAbstractSpec(num_objects=8)
        assert not spec.validate_object(1, b"\xff\xff")

    def test_validate_rejects_non_dir_root(self):
        spec = NFSAbstractSpec(num_objects=8)
        file_obj = AbstractObject(ftype=NFREG, generation=0)
        assert not spec.validate_object(0, file_obj.encode())

    def test_validate_rejects_out_of_range_reference(self):
        spec = NFSAbstractSpec(num_objects=8)
        dir_obj = AbstractObject(
            ftype=NFDIR, generation=0, entries=[("x", make_oid(99, 1))]
        )
        assert not spec.validate_object(0, dir_obj.encode())

    def test_zero_objects_rejected(self):
        with pytest.raises(ValueError):
            NFSAbstractSpec(num_objects=0)
