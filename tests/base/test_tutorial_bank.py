"""The docs/wrapping-a-service.md tutorial, verbatim and executable.

A toy bank service wrapped with BASE: demonstrates that the public API
generalizes beyond the NFS and OODB examples, and keeps the tutorial honest.
"""

import random

import pytest

from repro.base.abstraction import AbstractSpec
from repro.base.conformance import check, draw_script
from repro.base.library import BASEService
from repro.base.wrapper import ConformanceWrapper
from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.util.xdr import I64, U32, XdrDecoder, XdrEncoder, declare_op, decode_op


# --- Step 1: the abstract specification ------------------------------------------


class BankSpec(AbstractSpec):
    def __init__(self, num_accounts=16):
        self.num_objects = num_accounts

    def initial_object(self, index):
        return XdrEncoder().pack_i64(0).getvalue()


# --- An "off-the-shelf" ledger implementation --------------------------------------


class Ledger:
    """A vendor ledger: append-only journal + derived balances, with its own
    notion of transaction timestamps (ignored by the abstract spec)."""

    def __init__(self, disk=None):
        self.disk = disk if disk is not None else {}
        self.disk.setdefault("journal", [])

    def deposit(self, account, amount, when):
        self.disk["journal"].append((account, amount, when))

    def balance(self, account):
        return sum(
            amount for acct, amount, _when in self.disk["journal"] if acct == account
        )

    def force_balance(self, account, balance):
        """Administrative reset used by state installs."""
        current = self.balance(account)
        if balance != current:
            self.disk["journal"].append((account, balance - current, 0))


# --- Step 2: the conformance wrapper --------------------------------------------------

BANK_OPS = {}
deposit_op = declare_op(BANK_OPS, "DEPOSIT", account=U32, amount=I64)
balance_op = declare_op(BANK_OPS, "BALANCE", account=U32)


class BankWrapper(ConformanceWrapper):
    def __init__(self, ledger, spec):
        super().__init__(spec)
        self.ledger = ledger

    def execute(self, op, client_id, timestamp_micros, read_only=False):
        try:
            command, args = decode_op(BANK_OPS, op)
        except ValueError:
            return b"ERR malformed"
        if args.account >= self.spec.num_objects:
            return b"ERR bad account"
        if command == "BALANCE":
            self.reads(args.account)
            return XdrEncoder().pack_i64(self.ledger.balance(args.account)).getvalue()
        if read_only:
            return b"ERR read-only"
        self.modify(args.account)
        self.ledger.deposit(args.account, args.amount, when=timestamp_micros)
        return XdrEncoder().pack_i64(self.ledger.balance(args.account)).getvalue()

    def get_obj(self, index):
        return XdrEncoder().pack_i64(self.ledger.balance(index)).getvalue()

    def put_objs(self, objects):
        for index, blob in objects.items():
            balance = XdrDecoder(blob).unpack_i64()
            self.ledger.force_balance(index, balance)


def test_the_wrapper_conforms():
    ledger = lambda disk: BankWrapper(Ledger(disk=disk), BankSpec())  # make(disk) -> wrapper
    assert check([ledger, ledger], draw_script(BANK_OPS, random.Random(7), 16, 40)) is None


# --- Step 3: deploy ----------------------------------------------------------------------


def bank_cluster():
    from repro.net.simulator import Simulator

    sim = Simulator(seed=0)

    def service_factory_for(replica_id):
        def make(disk):  # the replica's persistent state, kept by the cluster
            return BASEService(BankWrapper(Ledger(disk=disk), BankSpec()), sim.clock)

        return make

    config = BFTConfig(checkpoint_interval=8, log_window=16)
    return Cluster(service_factory_for, config=config, sim=sim)


def decode_balance(blob):
    return XdrDecoder(blob).unpack_i64()


def test_deposits_and_balances():
    cluster = bank_cluster()
    teller = cluster.client("teller-1")
    assert decode_balance(teller.invoke(deposit_op(3, 100))) == 100
    assert decode_balance(teller.invoke(deposit_op(3, -30))) == 70
    assert decode_balance(teller.invoke(balance_op(3), read_only=True)) == 70
    assert decode_balance(teller.invoke(balance_op(5), read_only=True)) == 0


def test_a_repeated_balance_is_reused_until_a_deposit():
    cluster = bank_cluster()
    teller = cluster.client("teller-1")
    teller.invoke(deposit_op(3, 100))

    def reused():
        return sum(
            cluster.service(rid).manager.counters.get("read_answers_reused")
            for rid in cluster.hosts
        )

    assert decode_balance(teller.invoke(balance_op(3), read_only=True)) == 100
    assert reused() == 0
    assert decode_balance(teller.invoke(balance_op(3), read_only=True)) == 100
    assert reused() > 0
    before = reused()
    teller.invoke(deposit_op(3, 5))
    assert decode_balance(teller.invoke(balance_op(3), read_only=True)) == 105
    assert reused() == before


def test_a_malformed_op_is_answered_not_raised():
    cluster = bank_cluster()
    teller = cluster.client("teller-1")
    assert decode_balance(teller.invoke(deposit_op(3, 100))) == 100
    journals = {rid: list(disk["journal"]) for rid, disk in cluster.disks.items()}
    for op in (deposit_op(3, 5) + b"\x00", deposit_op(3, 5)[:-1], balance_op(3) + b"\x00\x00\x00\x07",
               deposit_op(3, 5).replace(b"DEPOSIT", b"DEPOSIX"), b""):
        assert teller.invoke(op) == b"ERR malformed"
    assert {rid: list(disk["journal"]) for rid, disk in cluster.disks.items()} == journals
    assert decode_balance(teller.invoke(balance_op(3), read_only=True)) == 100


def test_bank_masks_a_crash():
    cluster = bank_cluster()
    teller = cluster.client("teller-1")
    teller.invoke(deposit_op(1, 10))
    cluster.crash("R2")
    assert decode_balance(teller.invoke(deposit_op(1, 5), timeout=30)) == 15


def test_bank_state_transfer():
    cluster = bank_cluster()
    teller = cluster.client("teller-1")
    cluster.crash("R3")
    for i in range(30):
        teller.invoke(deposit_op(i % 4, 1), timeout=60)
    cluster.restart("R3")
    cluster.settle(5.0)
    service = cluster.service("R3")
    assert decode_balance(service.wrapper.get_obj(0)) == 8


def test_bank_proactive_recovery_heals_corruption():
    cluster = bank_cluster()
    teller = cluster.client("teller-1")
    for i in range(20):
        teller.invoke(deposit_op(2, 10), timeout=60)
    cluster.settle(1.0)
    # Cook R1's books.
    cluster.disks["R1"]["journal"].append((2, 999_999, 0))
    host = cluster.hosts["R1"]
    assert cluster.recover("R1")
    cluster.settle(5.0)
    assert host.replica.counters.get("recoveries_completed") == 1
    assert decode_balance(cluster.service("R1").wrapper.get_obj(2)) == 200


def test_replicas_agree_despite_journal_divergence():
    """The vendors' journals differ (force_balance entries, orders), but the
    abstract state — the balances — is identical."""
    cluster = bank_cluster()
    teller = cluster.client("teller-1")
    for i in range(12):
        teller.invoke(deposit_op(i % 3, i), timeout=60)
    cluster.settle(1.0)
    roots = {rid: cluster.service(rid).current_node(0, 0)[1] for rid in cluster.hosts}
    assert len(set(roots.values())) == 1
