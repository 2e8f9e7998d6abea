"""Allocation choices pinned as literals.

Which block Ext2FS hands out next and which abstract index the conformance
wrapper gives a new object are both visible: block numbers through the disk
and STATFS's free count, indices through every oid a client holds (paper
section 3.1). Both must stay first-fit / lowest-free however they are
computed, so the exact choices of a fixed script are written out here."""

from repro.nfs.fileserver import Ext2FS, MemFS
from repro.nfs.protocol import (
    CreateCall,
    MkdirCall,
    NfsReply,
    RemoveCall,
    Sattr,
)
from repro.nfs.spec import NFSAbstractSpec, ROOT_OID, make_oid
from repro.nfs.wrapper import NFSConformanceWrapper
from repro.util.xdr import XdrDecoder

BLOCK = 512


def _block_lists(server):
    return {
        ino: list(inode["blocks"])
        for ino, inode in sorted(server.disk["ext2:inodes"].items())
        if not inode["free"] and inode["blocks"]
    }


def _free_blocks(server):
    dec = XdrDecoder(server.statfs(server.root_handle()).data)
    dec.unpack_u32(), dec.unpack_u32(), dec.unpack_u64()
    return dec.unpack_u64()


def test_ext2_blocks_are_first_fit_across_frees_and_a_reboot():
    disk = {}
    fs = Ext2FS(disk=disk, seed=3)
    root = fs.root_handle()
    a = fs.create(root, "a", Sattr()).fh
    b = fs.create(root, "b", Sattr()).fh
    c = fs.create(root, "c", Sattr()).fh
    assert fs.write(a, 0, b"a" * (3 * BLOCK)).ok
    assert fs.write(b, 0, b"b" * (2 * BLOCK + 1)).ok
    assert fs.write(c, 0, b"c" * BLOCK).ok
    assert _block_lists(fs) == {1: [0, 1, 2], 2: [3, 4, 5], 3: [6]}
    assert _free_blocks(fs) == 65529

    assert fs.setattr(a, Sattr(size=BLOCK)).ok  # shorter: a keeps one block
    assert fs.write(c, 0, b"C" * (4 * BLOCK)).ok  # longer: c takes freed ones
    assert _block_lists(fs) == {1: [0], 2: [3, 4, 5], 3: [1, 2, 6, 7]}
    assert _free_blocks(fs) == 65528

    assert fs.remove(root, "b").ok
    assert fs.mkdir(root, "d", Sattr()).ok
    e = fs.create(root, "e", Sattr()).fh
    assert fs.write(e, 0, b"e" * (2 * BLOCK)).ok
    assert _block_lists(fs) == {1: [0], 3: [1, 2, 6, 7], 4: [3, 4]}
    assert _free_blocks(fs) == 65529

    rebooted = Ext2FS(disk=disk, seed=99)
    assert _free_blocks(rebooted) == 65529
    f = rebooted.create(rebooted.root_handle(), "f", Sattr()).fh
    assert rebooted.write(f, 0, b"f" * (3 * BLOCK)).ok
    assert rebooted.write(a, 0, b"A" * (2 * BLOCK)).ok
    assert _block_lists(rebooted) == {1: [0, 10], 3: [1, 2, 6, 7], 4: [3, 4], 5: [5, 8, 9]}
    assert _free_blocks(rebooted) == 65525
    assert rebooted.read(f, 0, 4 * BLOCK).data == b"f" * (3 * BLOCK)


def _wrapper(disk=None):
    disk = {} if disk is None else disk
    return NFSConformanceWrapper(MemFS(disk=disk, seed=4), NFSAbstractSpec(16), disk=disk)


def _run(wrapper, call):
    return NfsReply.decode(wrapper.execute(call.encode(), "C0", 1_000_000))


def _create(wrapper, name, directory=ROOT_OID):
    return _run(wrapper, CreateCall(dir_fh=directory, name=name, sattr=Sattr())).fh


def test_wrapper_gives_each_new_object_the_lowest_free_index():
    wrapper = _wrapper()
    assert [_create(wrapper, n) for n in "abcde"] == [make_oid(i, 1) for i in range(1, 6)]
    sub = _run(wrapper, MkdirCall(dir_fh=ROOT_OID, name="sub", sattr=Sattr())).fh
    assert sub == make_oid(6, 1)
    for name in "db":
        assert _run(wrapper, RemoveCall(dir_fh=ROOT_OID, name=name)).ok
    assert _create(wrapper, "x", sub) == make_oid(2, 2)
    assert _create(wrapper, "y") == make_oid(4, 2)
    assert _run(wrapper, RemoveCall(dir_fh=ROOT_OID, name="a")).ok
    assert [_create(wrapper, n) for n in "pqr"] == [make_oid(1, 2), make_oid(7, 1), make_oid(8, 1)]


def test_lowest_free_index_after_reconstruction_and_after_an_install():
    disk = {}
    wrapper = _wrapper(disk)
    for name in "abcd":
        _create(wrapper, name)
    for name in "bc":
        assert _run(wrapper, RemoveCall(dir_fh=ROOT_OID, name=name)).ok
    assert _create(wrapper, "e") == make_oid(2, 2)
    state = {i: wrapper.get_obj(i) for i in range(16)}
    wrapper.save_for_recovery()

    rebuilt = _wrapper(disk)  # the implementation reboots over the same disk
    assert _create(rebuilt, "f") == make_oid(3, 2)
    assert _create(rebuilt, "g") == make_oid(5, 1)
    assert _run(rebuilt, RemoveCall(dir_fh=ROOT_OID, name="a")).ok
    assert _create(rebuilt, "h") == make_oid(1, 2)

    installed = _wrapper()
    for name in "vwxyz":  # indices 1-5; the install below frees 3 and 5
        _create(installed, name)
    installed.put_objs(state)
    assert _create(installed, "i") == make_oid(3, 2)
    assert _run(installed, RemoveCall(dir_fh=ROOT_OID, name="a")).ok
    assert _create(installed, "j") == make_oid(1, 2)
    assert _create(installed, "k") == make_oid(5, 1)


def _ino_gen(fh):
    dec = XdrDecoder(fh)
    dec.unpack_string(), dec.unpack_u64()
    return dec.unpack_u32(), dec.unpack_u32()


def _inode_table(server):
    return {
        ino: (inode["generation"], inode["free"])
        for ino, inode in sorted(server.disk["ext2:inodes"].items())
    }


def test_ext2_inodes_are_lowest_free_across_removes_and_a_reboot():
    disk = {}
    fs = Ext2FS(disk=disk, seed=5)
    root = fs.root_handle()
    assert _ino_gen(root) == (0, 1)
    made = [fs.create(root, n, Sattr()).fh for n in "abc"]
    made.append(fs.mkdir(root, "d", Sattr()).fh)
    made.append(fs.symlink(made[3], "e", "/a", Sattr()).fh)
    assert [_ino_gen(fh) for fh in made] == [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]

    assert fs.remove(root, "b").ok and fs.remove(root, "a").ok
    again = [fs.create(root, n, Sattr()).fh for n in "fgh"]
    assert [_ino_gen(fh) for fh in again] == [(1, 2), (2, 2), (6, 1)]
    assert fs.remove(root, "c").ok
    assert fs.rename(root, "f", root, "h").ok  # h's inode 6 is freed
    assert _inode_table(fs) == {
        0: (1, False), 1: (2, False), 2: (2, False), 3: (1, True),
        4: (1, False), 5: (1, False), 6: (1, True),
    }

    rebooted = Ext2FS(disk=disk, seed=99)
    root = rebooted.root_handle()
    late = [rebooted.create(root, n, Sattr()).fh for n in "xyz"]
    assert [_ino_gen(fh) for fh in late] == [(3, 2), (6, 2), (7, 1)]
    assert rebooted.rmdir(root, "d").status != 0  # not empty: nothing freed
    assert rebooted.remove(made[3], "e").ok and rebooted.rmdir(root, "d").ok
    last = [rebooted.mkdir(root, n, Sattr()).fh for n in "uv"]
    assert [_ino_gen(fh) for fh in last] == [(4, 2), (5, 2)]
    assert _inode_table(rebooted) == {
        0: (1, False), 1: (2, False), 2: (2, False), 3: (2, False),
        4: (2, False), 5: (2, False), 6: (2, False), 7: (1, False),
    }
