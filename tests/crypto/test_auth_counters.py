"""MAC vectors: what each call does to the counters and the key cache.

``mac_generate`` / ``mac_verify`` / ``key_derivations`` are pinned by every
committed benchmark baseline, so the *totals* may not move; these tests also
pin how they move — once per authenticator, not once per tag.
"""

import pytest

from repro.crypto.auth import MAC_SIZE, KeyTable, MacVerificationError, mac

RECEIVERS = ["R0", "R1", "R2", "R3"]


@pytest.fixture
def keys():
    return KeyTable()


def _adds(keys, monkeypatch):
    """Record every ``counters.add`` call on ``keys`` (still applied)."""
    calls = []
    add = keys.counters.add

    def recording_add(name, amount=1):
        calls.append((name, amount))
        add(name, amount)

    monkeypatch.setattr(keys.counters, "add", recording_add)
    return calls


@pytest.mark.parametrize("sender, tagged", [("C0", 4), ("R1", 3)])
def test_mac_generate_moves_once_per_authenticator(keys, monkeypatch, sender, tagged):
    keys.make_authenticator(sender, RECEIVERS, b"warm the key cache")
    calls = _adds(keys, monkeypatch)
    auth = keys.make_authenticator(sender, RECEIVERS, b"msg")
    assert len(auth.tags) == tagged
    assert calls == [("mac_generate", tagged)]
    assert auth.size_bytes() == tagged * (MAC_SIZE + 4)


def test_authenticator_to_nobody_counts_nothing(keys):
    auth = keys.make_authenticator("R0", ["R0"], b"msg")
    assert auth.tags == {} and auth.size_bytes() == 0
    assert keys.counters.get("mac_generate") == 0


def test_tags_are_the_public_mac_under_the_public_key(keys):
    auth = keys.make_authenticator("C0", RECEIVERS, b"msg")
    assert list(auth.tags) == RECEIVERS  # receiver order is wire order
    for receiver, (epoch, tag) in auth.tags.items():
        assert epoch == keys.epoch_of(receiver) == 0
        assert tag == mac(keys.key("C0", receiver), b"msg")


def test_mac_verify_moves_by_one_even_when_the_check_raises(keys, monkeypatch):
    auth = keys.make_authenticator("C0", ["R0", "R1"], b"msg")
    keys.refresh("R1")
    calls = _adds(keys, monkeypatch)
    keys.check_authenticator(auth, "R0", b"msg")
    with pytest.raises(MacVerificationError, match="bad MAC from C0 to R0"):
        keys.check_authenticator(auth, "R0", b"other")
    with pytest.raises(MacVerificationError, match="no MAC for R2 in authenticator from C0"):
        keys.check_authenticator(auth, "R2", b"msg")
    with pytest.raises(MacVerificationError, match=r"stale key epoch 0 for R1 \(current 1\)"):
        keys.check_authenticator(auth, "R1", b"msg")
    assert calls == [("mac_verify", 1)] * 4


def test_refresh_costs_one_derivation_and_kills_old_tags(keys):
    before = keys.make_authenticator("C0", RECEIVERS, b"msg")
    assert keys.counters.get("key_derivations") == 4
    keys.refresh("R2")
    after = keys.make_authenticator("C0", RECEIVERS, b"msg")
    assert keys.counters.get("key_derivations") == 5  # only C0 -> R2 is new
    keys.make_authenticator("C0", RECEIVERS, b"again")
    assert keys.counters.get("key_derivations") == 5
    assert after.tags["R2"][0] == 1 and after.tags["R2"][1] != before.tags["R2"][1]
    assert after.tags["R1"] == before.tags["R1"]
    keys.check_authenticator(after, "R2", b"msg")
    with pytest.raises(MacVerificationError, match="stale key epoch 0 for R2"):
        keys.check_authenticator(before, "R2", b"msg")


def test_verifier_derives_the_key_when_it_has_not_seen_it(keys):
    """The sender's and the receiver's ``KeyTable`` are one object in the
    simulator, but a check on a cold cache must still find the key."""
    auth = keys.make_authenticator("C0", ["R0"], b"msg")
    cold = KeyTable()
    cold.check_authenticator(auth, "R0", b"msg")
    assert cold.counters.get("key_derivations") == 1
    cold.check_authenticator(auth, "R0", b"msg")
    assert cold.counters.get("key_derivations") == 1
