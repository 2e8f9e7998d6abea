"""Catch-up serves what a peer is missing without re-authenticating it: the
pre-prepares a primary resends, the stable certificate and the committed
retransmission are all signed, so a peer whose session keys a reboot
refreshed can still use them, and serving them writes nothing into them."""

from repro.bft.messages import CheckpointCert, Commit, PrePrepare, Status
from repro.bft.testing import encode_set, kv_cluster


def test_a_resent_pre_prepare_reaches_a_backup_whose_keys_a_reboot_refreshed():
    cluster = kv_cluster()
    client = cluster.client("C0")
    assert client.invoke(encode_set(0, b"warm")) == b"OK"
    # Hold every commit back, so the next instance stays unexecuted at the
    # primary, and keep its pre-prepare from R3.
    hold_commits = cluster.network.add_interceptor(
        lambda src, dst, message: None if isinstance(message, Commit) else message
    )
    keep_from_r3 = cluster.network.add_interceptor(
        lambda src, dst, message: None
        if isinstance(message, PrePrepare) and dst == "R3"
        else message
    )
    client.invoke_async(encode_set(1, b"late"), lambda result: None)
    cluster.sim.run_for(0.01)
    seqno = cluster.replica("R0").next_seqno
    backup = cluster.replica("R3")
    assert backup.log.get(0, seqno) is None or backup.log.get(0, seqno).pre_prepare is None

    # R3 reboots with fresh inbound keys.  The client, still without a reply,
    # retransmits its request under the new keys (messages travel by
    # reference here, so that also refreshes the authenticator of the request
    # inside the primary's pre-prepare).  R3's next STATUS tells the primary
    # what it lacks, and the primary resends the pre-prepare it signed and
    # multicast before the refresh.
    cluster.keys.refresh("R3")
    assert cluster.sim.run_until_condition(
        lambda: client.counters.get("request_retransmissions"), timeout=1.0
    )
    keep_from_r3()

    def prepared():
        slot = backup.log.get(0, seqno)
        return slot is not None and slot.sent_prepare

    assert cluster.sim.run_until_condition(prepared, timeout=2 * cluster.config.status_interval)
    assert backup.log.get(0, seqno).pre_prepare.primary_id == "R0"
    assert backup.counters.get("auth_failed") == 0
    hold_commits()


def test_serving_the_stable_certificate_leaves_it_as_it_was():
    cluster = kv_cluster()
    client = cluster.client("C0")
    for i in range(cluster.config.checkpoint_interval):
        assert client.invoke(encode_set(i % 4, bytes([i]))) == b"OK"
    cluster.settle(0.2)
    primary = cluster.replica("R0")
    cert = primary.stable_cert
    assert cert is not None and cert.seqno == cluster.config.checkpoint_interval
    assert getattr(cert, "auth", None) is None
    served = []
    cluster.network.add_interceptor(
        lambda src, dst, message: served.append((src, dst, message)) or message
        if isinstance(message, CheckpointCert)
        else message
    )

    # A laggard's STATUS, two peers asking in turn: each gets the one shared
    # certificate object, and nothing is written into it.
    for laggard in ("R2", "R3"):
        status = Status(replica_id=laggard, view=0, stable_seqno=0, last_executed=0)
        status.auth = cluster.keys.make_authenticator(laggard, ["R0"], status.signable_bytes())
        primary.on_message(status, laggard)
    assert [(src, dst) for src, dst, _ in served] == [("R0", "R2"), ("R0", "R3")]
    assert all(message is cert for _, _, message in served)
    assert getattr(cert, "auth", None) is None
