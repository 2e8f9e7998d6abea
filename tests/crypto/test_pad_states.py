"""The pad-state HMAC equals the standard library's, for any key and data.

Authenticators and signatures are computed by ``hmac_sha256`` from a key's
cached ``pad_states`` (RFC 2104 section 4); ``hmac.digest`` is the reference.
Key lengths straddle SHA-256's 64-byte block: an empty key, a short one, the
32-byte derived keys the system uses, exactly one block, and keys longer than
a block, which must be hashed before padding.
"""

import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.auth import hmac_sha256, pad_states


@pytest.mark.parametrize("key_length", [0, 1, 32, 64, 65, 200])
@settings(max_examples=60, deadline=None)
@given(draw=st.data())
def test_pad_state_hmac_is_the_standard_hmac(key_length, draw):
    key = draw.draw(st.binary(min_size=key_length, max_size=key_length), label="key")
    data = draw.draw(st.binary(max_size=2048), label="data")
    pads = pad_states(key)
    expected = hmac.digest(key, data, "sha256")
    assert hmac_sha256(pads, data) == expected
    # The cached states are copied, never advanced: a second tag is the same.
    assert hmac_sha256(pads, data) == expected
