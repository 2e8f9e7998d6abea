"""MAC and signature bytes, pinned as hex.

The other crypto tests relate one tag to another (an authenticator entry to
:func:`mac`, a signature to ``verify``), so a change that moved every tag the
same way would pass them all.  These literals were captured from the
``hmac.digest`` implementation over the golden PRE-PREPARE of
``tests/bft/test_golden_wire.py``; any way of computing the tags must
reproduce them byte for byte.
"""

import pytest

from repro.crypto.auth import Authenticator, KeyTable, MacVerificationError
from repro.crypto.sign import SignatureScheme
from tests.bft.test_golden_wire import golden_messages

RECEIVERS = ["R0", "R1", "R2", "R3"]

AUTH_HEX = {
    "R0": (0, "6695e87e56584943"),
    "R1": (0, "d4003ec8722de133"),
    "R2": (0, "939051f65c2f494b"),
    "R3": (0, "90e75a8b4ce8e22e"),
}
AUTH_AFTER_REFRESH_R2_HEX = dict(AUTH_HEX, R2=(1, "38ad4d2848ede766"))

SIGNATURE_R2_HEX = "68075d2d93fb293cb256fcf3dbfd0c9470afba91fcdd71b652f7f50337503fe2"


@pytest.fixture
def payload():
    return golden_messages()["pre_prepare"].signable_bytes()


def _hex_tags(auth):
    return {receiver: (epoch, tag.hex()) for receiver, (epoch, tag) in auth.tags.items()}


def test_authenticator_bytes_before_and_after_a_refresh(payload):
    keys = KeyTable()
    before = keys.make_authenticator("C0", RECEIVERS, payload)
    assert _hex_tags(before) == AUTH_HEX
    keys.refresh("R2")
    after = keys.make_authenticator("C0", RECEIVERS, payload)
    assert _hex_tags(after) == AUTH_AFTER_REFRESH_R2_HEX
    for receiver in RECEIVERS:
        keys.check_authenticator(after, receiver, payload)
    with pytest.raises(MacVerificationError, match="stale key epoch 0 for R2"):
        keys.check_authenticator(before, "R2", payload)


def test_a_cold_table_verifies_the_pinned_tags(payload):
    pinned = Authenticator(
        "C0", {receiver: (epoch, bytes.fromhex(tag)) for receiver, (epoch, tag) in AUTH_HEX.items()}
    )
    cold = KeyTable()
    for receiver in RECEIVERS:
        cold.check_authenticator(pinned, receiver, payload)
    with pytest.raises(MacVerificationError, match="bad MAC from C0 to R1"):
        cold.check_authenticator(pinned, "R1", payload + b"\x00")


def test_signature_bytes(payload):
    scheme = SignatureScheme()
    signature = scheme.keygen("R2").sign(payload)
    assert signature.hex() == SIGNATURE_R2_HEX
    assert SignatureScheme().verify("R2", payload, bytes.fromhex(SIGNATURE_R2_HEX))
    assert not scheme.verify("R1", payload, signature)
