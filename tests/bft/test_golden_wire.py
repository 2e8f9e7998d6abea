"""Golden wire-format and checkpoint-digest pins.

Every constant in this file was captured from the implementation BEFORE the
encoding-cache / persistent-snapshot optimisations landed.  The caching layer
must be byte-for-byte behavior-neutral: if any of these assertions fires, the
wire format or the checkpoint digest format changed and every cross-version
deployment (and every recorded BENCH_* trajectory) silently broke.
"""

import hashlib
from dataclasses import dataclass

import pytest

from repro.base.partition import PartitionTree
from repro.base.statemgr import genesis_root_digest
from repro.bft.fusion import FusedBackupTier
from repro.bft.messages import (
    MESSAGE_TYPES,
    Busy,
    Checkpoint,
    CheckpointCert,
    Commit,
    FetchMeta,
    FetchObject,
    FetchRoot,
    FusionBlock,
    FusionFetch,
    Lease,
    LeaseRevoke,
    Message,
    MetaReply,
    NewView,
    ObjectReply,
    ParityAck,
    ParityUpdate,
    PrePrepare,
    Prepare,
    PreparedProof,
    Recovered,
    Recovering,
    Reply,
    Request,
    RetransmitCommitted,
    SpecReply,
    Status,
    TransferRoot,
    TxnDecide,
    TxnPrepare,
    ViewChange,
    Wire,
    decode_message,
)
from repro.bft.sharding import sharded_kv_cluster
from repro.bft.testing import KVStateMachine, encode_append, encode_get, encode_set, kv_cluster
from repro.crypto.auth import Authenticator
from repro.crypto.digest import digest
from repro.util.xdr import XdrError

D1 = digest(b"golden-digest-1")
D2 = digest(b"golden-digest-2")


def golden_messages():
    """The fixed message instances the goldens were captured from."""
    req = Request(client_id="C1", reqid=7, op=b"\x01\x02payload", read_only=False)
    req2 = Request(client_id="C2", reqid=9, op=b"read-op", read_only=True)
    pp = PrePrepare(
        view=2,
        seqno=11,
        requests=[req, req2],
        nondet=b"\x00\x01\x02\x03",
        primary_id="R2",
        sig=b"s" * 32,
    )
    prep = Prepare(view=2, seqno=11, digest=D1, replica_id="R1", sig=b"p" * 32)
    com = Commit(view=2, seqno=11, digest=D1, replica_id="R3", sig=b"c" * 32)
    ckpt = Checkpoint(seqno=16, state_digest=D2, replica_id="R0", sig=b"k" * 32)
    proof = PreparedProof(pre_prepare=pp, prepares=[prep])
    vc = ViewChange(
        new_view=3,
        stable_seqno=16,
        checkpoint_proof=[ckpt],
        prepared=[proof],
        replica_id="R1",
        sig=b"v" * 32,
    )
    cert = CheckpointCert(seqno=16, state_digest=D2, proof=[ckpt])
    return {
        "request": req,
        "request_ro": req2,
        "reply": Reply(
            view=2, reqid=7, client_id="C1", replica_id="R1", result=b"ok", read_only=False
        ),
        "pre_prepare": pp,
        "prepare": prep,
        "commit": com,
        "checkpoint": ckpt,
        "view_change": vc,
        "new_view": NewView(
            view=3, view_changes=[vc], pre_prepares=[pp], primary_id="R3", sig=b"n" * 32
        ),
        "status": Status(
            replica_id="R2", view=2, stable_seqno=16, last_executed=18, in_view_change=False
        ),
        "checkpoint_cert": cert,
        "retransmit": RetransmitCommitted(replica_id="R0", entries=[(pp, [prep], [com])]),
        "fetch_root": FetchRoot(requester="R3", min_seqno=16),
        "transfer_root": TransferRoot(replica_id="R0", cert=cert),
        "fetch_meta": FetchMeta(requester="R3", level=1, index=2, min_seqno=16),
        "meta_reply": MetaReply(
            replica_id="R0", seqno=16, level=1, index=2, children=[(3, D1), (0, D2)]
        ),
        "fetch_object": FetchObject(requester="R3", index=5, min_seqno=16),
        "object_reply": ObjectReply(replica_id="R0", index=5, seqno=16, data=b"object-bytes"),
        "recovering": Recovering(replica_id="R2", epoch=1),
        "recovered": Recovered(replica_id="R2", epoch=1),
        # Fast-path messages (pinned when the RECIPE-style fast path landed;
        # everything above this line predates it and must stay byte-identical).
        "spec_reply": SpecReply(
            view=2, reqid=7, client_id="C1", replica_id="R1", result=b"ok"
        ),
        "lease": Lease(view=2, epoch=5, seqno=24, primary_id="R2"),
        "lease_revoke": LeaseRevoke(view=2, epoch=5, primary_id="R2"),
        # Fused-backup tier messages plus the hardened decide (pinned when
        # the fusion tier landed; ``cert`` rides outside the signable prefix
        # on parity_update/fusion_block by design — proof sets legitimately
        # differ per sender — but still counts toward wire size).
        "txn_decide": TxnDecide(
            txid="C1:7", commit=True, votes=[(0, ["R0", "R2"]), (1, ["R1", "R3"])]
        ),
        "parity_update": ParityUpdate(
            shard=1,
            base_seqno=16,
            seqno=32,
            slot_width=96,
            num_leaves=20,
            deltas=[(3, b"\x01\x02\x03\x04"), (7, b"\xff\x00")],
            cert=cert,
        ),
        "parity_ack": ParityAck(parity_id="F0", shard=1, seqno=32),
        "fusion_fetch": FusionFetch(parity_id="F0", shard=1, seqno=0, slot_width=96),
        "fusion_block": FusionBlock(
            replica_id="R2",
            shard=1,
            seqno=16,
            slot_width=96,
            num_leaves=20,
            block=b"fusion-block-bytes",
            cert=cert,
        ),
        # The last two message classes without a pin (recorded before the
        # per-message primitives were tightened).  Both carry an
        # authenticator, so their wire sizes also pin 12 bytes per MAC tag.
        "busy": Busy(
            view=2,
            reqid=7,
            client_id="C1",
            replica_id="R2",
            retry_after_micros=2500,
            auth=Authenticator(sender="R2", tags={"C1": (0, b"m" * 8)}),
        ),
        "txn_prepare": TxnPrepare(
            txid="C1:7",
            writes=[(3, b"\x01\x02\x03\x04\x05"), (0, b""), (12, b"value-12")],
            auth=Authenticator(
                sender="C1",
                tags={"R0": (0, b"a" * 8), "R1": (1, b"b" * 8), "R2": (0, b"c" * 8)},
            ),
        ),
    }


SIGNABLE_HEX = {
    "request": "000000075245515545535400000000024331000000000000000000070000000901027061796c6f616400000000000000",
    "request_ro": "0000000752455155455354000000000243320000000000000000000900000007726561642d6f700000000001",
    "reply": "000000055245504c590000000000000000000002000000000000000700000002433100000000000252310000000000026f6b000000000000",
    "pre_prepare": "0000000b5052452d50524550415245000000000000000002000000000000000b9b0272ae6e391ff404e816f33ed75948333e7e6d8140953b4a5cdae9ff36ac2f0000000252320000",
    "prepare": "0000000750524550415245000000000000000002000000000000000bf85186ebd7fc0d59ea77986bfa8c5112c80d87b73f168f863ee122abfce764670000000252310000",
    "commit": "00000006434f4d4d495400000000000000000002000000000000000bf85186ebd7fc0d59ea77986bfa8c5112c80d87b73f168f863ee122abfce764670000000252330000",
    "checkpoint": "0000000a434845434b504f494e54000000000000000000104f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b60000000252300000",
    "view_change": "0000000b564945572d4348414e47450000000000000000030000000000000010000000025231000000000001000000400000000a434845434b504f494e54000000000000000000104f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b6000000025230000000000001000000480000000b5052452d50524550415245000000000000000002000000000000000b9b0272ae6e391ff404e816f33ed75948333e7e6d8140953b4a5cdae9ff36ac2f0000000252320000",
    "new_view": "000000084e45572d564945570000000000000003000000025233000000000001000000c00000000b564945572d4348414e47450000000000000000030000000000000010000000025231000000000001000000400000000a434845434b504f494e54000000000000000000104f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b6000000025230000000000001000000480000000b5052452d50524550415245000000000000000002000000000000000b9b0272ae6e391ff404e816f33ed75948333e7e6d8140953b4a5cdae9ff36ac2f000000025232000000000001000000480000000b5052452d50524550415245000000000000000002000000000000000b9b0272ae6e391ff404e816f33ed75948333e7e6d8140953b4a5cdae9ff36ac2f0000000252320000",
    "status": "000000065354415455530000000000025232000000000000000000020000000000000010000000000000001200000000",
    "checkpoint_cert": "0000000f434845434b504f494e542d434552540000000000000000104f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b600000001000000400000000a434845434b504f494e54000000000000000000104f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b60000000252300000",
    "retransmit": "0000000a52455452414e534d49540000000000025230000000000001000000480000000b5052452d50524550415245000000000000000002000000000000000b9b0272ae6e391ff404e816f33ed75948333e7e6d8140953b4a5cdae9ff36ac2f0000000252320000",
    "fetch_root": "0000000a46455443482d524f4f54000000000002523300000000000000000010",
    "transfer_root": "0000000d5452414e534645522d524f4f540000000000000252300000000000840000000f434845434b504f494e542d434552540000000000000000104f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b600000001000000400000000a434845434b504f494e54000000000000000000104f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b60000000252300000",
    "fetch_meta": "0000000a46455443482d4d455441000000000002523300000000000100000000000000020000000000000010",
    "meta_reply": "0000000a4d4554412d5245504c59000000000002523000000000000000000010000000010000000000000002000000020000000000000003f85186ebd7fc0d59ea77986bfa8c5112c80d87b73f168f863ee122abfce7646700000000000000004f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b6",
    "fetch_object": "0000000c46455443482d4f424a454354000000025233000000000000000000050000000000000010",
    "object_reply": "0000000c4f424a4543542d5245504c590000000252300000000000000000000500000000000000100000000c6f626a6563742d6279746573",
    "recovering": "0000000a5245434f564552494e47000000000002523200000000000000000001",
    "recovered": "000000095245434f564552454400000000000002523200000000000000000001",
    "spec_reply": "0000000a535045432d5245504c5900000000000000000002000000000000000700000002433100000000000252310000000000026f6b0000",
    "lease": "000000054c454153450000000000000000000002000000000000000500000000000000180000000252320000",
    "lease_revoke": "0000000c4c454153452d5245564f4b45000000000000000200000000000000050000000252320000",
    "txn_decide": "0000000a54584e2d44454349444500000000000443313a370000000100000002000000000000000200000002523000000000000252320000000000010000000200000002523100000000000252330000",
    "parity_update": "0000000d5041524954592d55504441544500000000000001000000000000001000000000000000200000006000000014000000020000000300000004010203040000000700000002ff000000",
    "parity_ack": "0000000a5041524954592d41434b00000000000246300000000000010000000000000020",
    "fusion_fetch": "0000000c465553494f4e2d4645544348000000024630000000000001000000000000000000000060",
    "fusion_block": "0000000c465553494f4e2d424c4f434b0000000252320000000000010000000000000010000000600000001400000012667573696f6e2d626c6f636b2d62797465730000",
    "busy": "0000000442555359000000000000000200000000000000070000000243310000000000025232000000000000000009c4",
    "txn_prepare": "0000000b54584e2d50524550415245000000000443313a37000000030000000300000005010203040500000000000000000000000000000c0000000876616c75652d3132",
}

WIRE_SIZES = {
    "request": 48,
    "request_ro": 44,
    "reply": 56,
    "pre_prepare": 200,
    "prepare": 100,
    "commit": 100,
    "checkpoint": 96,
    "view_change": 524,
    "new_view": 1064,
    "status": 48,
    "checkpoint_cert": 164,
    "retransmit": 504,
    "fetch_root": 32,
    "transfer_root": 328,
    "fetch_meta": 44,
    "meta_reply": 128,
    "fetch_object": 40,
    "object_reply": 56,
    "recovering": 32,
    "recovered": 32,
    "spec_reply": 56,
    "lease": 44,
    "lease_revoke": 40,
    "txn_decide": 80,
    "parity_update": 240,
    "parity_ack": 36,
    "fusion_fetch": 40,
    "fusion_block": 232,
    "busy": 60,
    "txn_prepare": 104,
}

BATCH_DIGEST_HEX = "9b0272ae6e391ff404e816f33ed75948333e7e6d8140953b4a5cdae9ff36ac2f"
REQUEST_DIGEST_HEX = "74f8f2554e07b2ec8b3ab9409db45ec464354fdadc227f92a35d007989b1d58c"


def edge_messages():
    """Encodings and sizes the instances above never exercise, recorded while
    every encoder was still written by hand: true / false bools, empty arrays
    and byte strings, an id whose UTF-8 length is not a multiple of four, and
    what ``wire_size`` does with an authenticator or without a certificate."""
    base = golden_messages()
    pp = base["pre_prepare"]
    one_tag = {"R3": (0, b"m" * 8)}

    return {
        "status_in_view_change": Status(
            replica_id="R2", view=2, stable_seqno=16, last_executed=18, in_view_change=True
        ),
        "txn_decide_abort": TxnDecide(txid="C1:7", commit=False),
        "txn_prepare_no_writes": TxnPrepare(txid="C1:7", writes=[]),
        "request_empty_op": Request(client_id="C1", reqid=7, op=b""),
        "reply_empty_result": Reply(
            view=2, reqid=7, client_id="C1", replica_id="R1", result=b"", read_only=True
        ),
        # "Cé" is two characters and three bytes: the length word counts bytes.
        "request_non_ascii_id": Request(client_id="C\u00e9", reqid=7, op=b"x"),
        "pre_prepare_empty": PrePrepare(
            view=2, seqno=12, requests=[], nondet=b"", primary_id="R2"
        ),
        "view_change_empty": ViewChange(
            new_view=3, stable_seqno=0, checkpoint_proof=[], prepared=[], replica_id="R1"
        ),
        "new_view_empty": NewView(view=3, view_changes=[], pre_prepares=[], primary_id="R3"),
        "checkpoint_cert_empty": CheckpointCert(seqno=0, state_digest=D2),
        "retransmit_empty": RetransmitCommitted(replica_id="R0"),
        "meta_reply_empty": MetaReply(replica_id="R0", seqno=16, level=1, index=2, children=[]),
        "parity_update_bare": ParityUpdate(
            shard=1, base_seqno=16, seqno=32, slot_width=96, num_leaves=20
        ),
        "fusion_block_bare": FusionBlock(
            replica_id="R2", shard=1, seqno=16, slot_width=96, num_leaves=20
        ),
        # An authenticator attached the way ``Replica.auth_send`` attaches it.
        # Every class counts it, declared ``auth`` field or not, a catch-up
        # message (which is sent without one) included.
        "retransmit_auth": _with_auth(
            RetransmitCommitted(
                replica_id="R0", entries=[(pp, [base["prepare"]], [base["commit"]])]
            ),
            one_tag,
        ),
        "fetch_root_auth": _with_auth(FetchRoot(requester="R3", min_seqno=16), one_tag),
    }


def _with_auth(message, tags):
    message.auth = Authenticator(sender="R0", tags=tags)
    return message


EDGE_SIGNABLE_HEX = {
    "status_in_view_change": "000000065354415455530000000000025232000000000000000000020000000000000010000000000000001200000001",
    "txn_decide_abort": "0000000a54584e2d44454349444500000000000443313a370000000000000000",
    "txn_prepare_no_writes": "0000000b54584e2d50524550415245000000000443313a3700000000",
    "request_empty_op": "000000075245515545535400000000024331000000000000000000070000000000000000",
    "reply_empty_result": "000000055245504c5900000000000000000000020000000000000007000000024331000000000002523100000000000000000001",
    "request_non_ascii_id": "0000000752455155455354000000000343c3a9000000000000000007000000017800000000000000",
    "pre_prepare_empty": "0000000b5052452d50524550415245000000000000000002000000000000000c1a369e22dddbf5d56c928ac12cd7f09b2402e936c0db9a76ed1ec46dda78a31a0000000252320000",
    "view_change_empty": "0000000b564945572d4348414e4745000000000000000003000000000000000000000002523100000000000000000000",
    "new_view_empty": "000000084e45572d56494557000000000000000300000002523300000000000000000000",
    "checkpoint_cert_empty": "0000000f434845434b504f494e542d434552540000000000000000004f3bfe01724e115a39f3cc70cff5c7a341d938ad8e821c0ea57df2411766d6b600000000",
    "retransmit_empty": "0000000a52455452414e534d49540000000000025230000000000000",
    "meta_reply_empty": "0000000a4d4554412d5245504c5900000000000252300000000000000000001000000001000000000000000200000000",
    "parity_update_bare": "0000000d5041524954592d5550444154450000000000000100000000000000100000000000000020000000600000001400000000",
    "fusion_block_bare": "0000000c465553494f4e2d424c4f434b0000000252320000000000010000000000000010000000600000001400000000",
    "retransmit_auth": "0000000a52455452414e534d49540000000000025230000000000001000000480000000b5052452d50524550415245000000000000000002000000000000000b9b0272ae6e391ff404e816f33ed75948333e7e6d8140953b4a5cdae9ff36ac2f0000000252320000",
    "fetch_root_auth": "0000000a46455443482d524f4f54000000000002523300000000000000000010",
}
EDGE_WIRE_SIZES = {
    "status_in_view_change": 48,
    "txn_decide_abort": 32,
    "txn_prepare_no_writes": 28,
    "request_empty_op": 36,
    "reply_empty_result": 52,
    "request_non_ascii_id": 40,
    "pre_prepare_empty": 72,
    "view_change_empty": 48,
    "new_view_empty": 36,
    "checkpoint_cert_empty": 64,
    "retransmit_empty": 28,
    "meta_reply_empty": 48,
    "parity_update_bare": 52,
    "fusion_block_bare": 48,
    "retransmit_auth": 516,
    "fetch_root_auth": 44,
}

# (num_objects, arity) -> (sha256 over the root-digest sequence of a fixed
# 2n-step update run, initial root, final root).
TREE_GOLDEN = {
    (1, 8): (
        "b8e2f54803502135c042e64414ece94f4bad4936d35f941152c27817b5428cb0",
        "4237f6898633ac00f28e402b55ae19dda173139a81d3148f38fbc6fb3014af71",
        "6e2392728df74e13242b86b832132b5518eec0420f7548e634a4cd575be4a7df",
    ),
    (7, 3): (
        "cd033d55570289db30add22a711116602fc17f16f2356a2933cd9517ce7348ec",
        "24304eb27e6638b54f43675b0f3ec4be862e68d925a7490b6511deebc7a620e5",
        "5d8dde9088438592176a22565211d60c867bea8f3041ad0db49f8ba46c87f9a6",
    ),
    (10, 4): (
        "492156284db0a48bb46cdedfb0143d255db9ced807720a87b2be1e7357b9898f",
        "313d1ac2c723ff888725d3b0c3cea38dc0996912d082268c74f27fa48050bacd",
        "6114b9985fe94e9de7ada17bcbe67e23d33704df2ca09d00ec847805f0d3b825",
    ),
    (16, 4): (
        "12ec308e50fc7ead2a7ba1c0353d2fa326d6394275eafd27929eac736497aecc",
        "dd9afb9af8f01f1b2437f5294647c32742c2de1b9fd9c30b99509bbdcf6eb092",
        "7009db168fb483e546edbcc926250d39617437e87de16d5cb51cdf1f80b76547",
    ),
    (64, 8): (
        "0b6316f04971faa8ce880dc3af036848be1af294b0047c9a283666e3a81cc018",
        "83d46717646609327044167a1456173fbc77a42e1bbe1a61d1a3d37d4f3ee171",
        "ca20dce8b196cb7f2561ddf07113a8c28a27aa20ab23036b63804fe586967535",
    ),
}

GENESIS_ROOT_KV8_HEX = "c92ef9c04722094c01efebf155ffb2dbe0ab9b4051aae58ce6e81c69d806a195"
GENESIS_ROOT_64_HEX = "dff76b98a80ae76f47f8d4097e8d54ada5c805f0468f9f395209a1398b824696"


def test_signable_bytes_golden():
    messages = golden_messages()
    assert set(messages) == set(SIGNABLE_HEX)
    for name, msg in messages.items():
        assert msg.signable_bytes().hex() == SIGNABLE_HEX[name], name


def test_wire_size_golden():
    messages = golden_messages()
    assert set(messages) == set(WIRE_SIZES)
    for name, msg in messages.items():
        assert msg.wire_size() == WIRE_SIZES[name], name


def test_every_message_class_has_a_pin():
    """A message added to ``repro.bft.messages`` without an instance in
    ``golden_messages()`` fails here, so no wire format goes unpinned."""
    declared = {
        cls for cls in Message.__subclasses__() if cls.__module__ == Message.__module__
    }
    assert declared and declared == {type(msg) for msg in golden_messages().values()}


#: Which kind of node each message class is addressed to.  Adding a class
#: means adding a row, and the row means the receiver must have an arm for it.
RECEIVER = {
    **dict.fromkeys(
        (
            Request, PrePrepare, Prepare, Commit, Checkpoint, CheckpointCert,
            Status, RetransmitCommitted, Lease, LeaseRevoke, ViewChange, NewView,
            FetchRoot, FetchMeta, FetchObject, TransferRoot, MetaReply, ObjectReply,
            Recovering, Recovered, FusionFetch, ParityAck,
        ),
        "replica",
    ),
    **dict.fromkeys((Reply, SpecReply, Busy), "client"),
    **dict.fromkeys((ParityUpdate, FusionBlock), "fused"),
    # The 2PC pair travels inside Request.op; the participant dispatches it.
    **dict.fromkeys((TxnPrepare, TxnDecide), "op"),
}


def undelivered(kind, message):
    """Hand ``message`` to a fresh node of ``kind``: how many messages does
    the node say it had no arm for?"""
    if kind == "replica":
        replica = kv_cluster().replica("R1")
        replica.on_message(message, "R0")
        return replica.counters.get("unknown_message")
    if kind == "client":
        client = kv_cluster().client("C1")
        client.on_message(message, "R1")
        return client.counters.get("unknown_message")
    if kind == "fused":
        node = FusedBackupTier(sharded_kv_cluster(2)).node
        node.on_message(1, message, "R2")
        return node.counters.get("fusion_unknown_message")
    participant = KVStateMachine(num_slots=5, disk={}, transactional=True).participant
    return int(participant.execute(message, "C1") == b"ERR unknown txn op")


def test_every_message_class_has_a_receiver_row():
    assert set(RECEIVER) == set(MESSAGE_TYPES.values())


@pytest.mark.parametrize("name", sorted(golden_messages()))
def test_every_message_type_reaches_its_receiver(name):
    """A dispatch arm dropped from ``Replica.on_message`` (or the client's,
    the fused node's, the participant's) leaves the class mentioned all over
    ``repro.bft`` and delivered nowhere; the receiver counting it unknown is
    the one place that shows."""
    message = golden_messages()[name]
    assert undelivered(RECEIVER[type(message)], message) == 0


def test_a_message_meant_for_another_kind_of_node_is_counted_unknown():
    """The observable the test above rests on exists at every kind of node
    (a client used to drop what it did not know without counting it)."""
    stray = golden_messages()["prepare"]
    assert undelivered("replica", golden_messages()["reply"]) == 1
    for kind in ("client", "fused", "op"):
        assert undelivered(kind, stray) == 1, kind


def test_a_message_class_without_a_wire_tag_cannot_be_created():
    """What the PROTO100 / PROTO102 lint rules policed is refused when the
    class statement runs, on every import."""
    with pytest.raises(TypeError, match="Untagged declares no WIRE"):

        @dataclass
        class Untagged(Message):
            seq: int


def test_a_wire_tag_already_taken_cannot_be_declared_again():
    with pytest.raises(TypeError, match="'REQUEST' of Impostor is already taken by Request"):

        @dataclass
        class Impostor(Message):
            seq: int

            WIRE = Wire("REQUEST", {})


def test_derived_decoder_inverts_every_encoding_that_is_the_whole_message():
    """A class that carries nothing outside its signed prefix comes back from
    its bytes; one that does (requests, proofs, certificates) is refused."""
    for name, msg in {**golden_messages(), **edge_messages()}.items():
        encoding = msg.signable_bytes()
        if msg.WIRE.carried:
            with pytest.raises(XdrError):
                decode_message(encoding)
        else:
            clone = decode_message(encoding)
            assert type(clone) is type(msg) and clone.signable_bytes() == encoding, name


def test_edge_encodings_and_sizes_golden():
    messages = edge_messages()
    assert set(messages) == set(EDGE_SIGNABLE_HEX) == set(EDGE_WIRE_SIZES)
    for name, msg in messages.items():
        assert msg.signable_bytes().hex() == EDGE_SIGNABLE_HEX[name], name
        assert msg.wire_size() == EDGE_WIRE_SIZES[name], name
    assert EDGE_WIRE_SIZES["retransmit_auth"] == WIRE_SIZES["retransmit"] + 12
    assert EDGE_WIRE_SIZES["fetch_root_auth"] == WIRE_SIZES["fetch_root"] + 12


def test_kv_op_bytes_golden():
    """The ops every explore / soak / bench / perf workload is made of."""
    assert encode_set(3, b"value").hex() == "0000000353455400000000030000000576616c7565000000"
    assert encode_get(3).hex() == "000000034745540000000003"
    assert encode_append(2**32 - 1, b"more!").hex() == (
        "00000006415050454e440000ffffffff000000056d6f726521000000"
    )


def test_wire_size_stable_on_repeated_calls():
    for name, msg in golden_messages().items():
        first = msg.wire_size()
        assert msg.wire_size() == first, name


def test_batch_and_request_digest_golden():
    messages = golden_messages()
    assert messages["pre_prepare"].batch_digest().hex() == BATCH_DIGEST_HEX
    assert messages["request"].digest().hex() == REQUEST_DIGEST_HEX


def test_partition_tree_roots_golden():
    for (num_objects, arity), (chain_hex, first_hex, last_hex) in TREE_GOLDEN.items():
        tree = PartitionTree(num_objects, arity=arity)
        roots = [tree.root()[1]]
        for step in range(2 * num_objects):
            index = (step * 7 + 3) % num_objects
            tree.update_leaf(index, digest(b"obj-%d-%d" % (index, step)), step + 1)
            roots.append(tree.root()[1])
        assert roots[0].hex() == first_hex, (num_objects, arity)
        assert roots[-1].hex() == last_hex, (num_objects, arity)
        chain = hashlib.sha256(b"".join(roots)).hexdigest()
        assert chain == chain_hex, (num_objects, arity)


def test_snapshot_roots_match_live_tree():
    tree = PartitionTree(10, arity=4)
    for step in range(20):
        index = (step * 7 + 3) % 10
        tree.update_leaf(index, digest(b"obj-%d-%d" % (index, step)), step + 1)
        snap = tree.snapshot()
        assert snap.root() == tree.root()
        assert snap.leaf(index) == tree.leaf(index)


def test_genesis_root_golden():
    assert genesis_root_digest(8, lambda i: b"", arity=4).hex() == GENESIS_ROOT_KV8_HEX
    assert (
        genesis_root_digest(64, lambda i: b"init-%d" % i, arity=8, client_shards=8).hex()
        == GENESIS_ROOT_64_HEX
    )
