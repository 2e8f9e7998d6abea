"""MAC authenticators and pairwise session keys.

PBFT replaces public-key signatures on normal-case messages with
*authenticators*: for a message sent to all replicas, the sender appends one
MAC per receiver, each computed under the pairwise session key it shares with
that receiver.  Receivers verify only their own entry.  Proactive recovery
refreshes session keys so that an attacker who steals old keys cannot forge
messages after the refresh (the `epoch` field models this).  A message is
authenticated once: the ordering and checkpoint messages, which this repo
signs (:mod:`repro.crypto.sign`) so they can serve as proofs, carry no
authenticator; requests, replies and the other messages carry one.

Every tag on the message path -- each authenticator entry, each signature --
is HMAC-SHA256 computed from a key's *pad states*: the SHA-256 states after
absorbing ``key XOR ipad`` and ``key XOR opad``, hashed once per key and
copied per tag, as RFC 2104 section 4 suggests.  The tags are byte-identical
to ``hmac.digest(key, data, "sha256")``; :func:`mac` and :func:`verify_mac`
stay on ``hmac.digest`` as the reference.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.util.errors import AuthenticationError
from repro.util.stats import Counters

MAC_SIZE = 8

#: (inner, outer) SHA-256 objects; see :func:`pad_states`.
PadStates = Tuple[Any, Any]


class MacVerificationError(AuthenticationError):
    """A MAC did not verify under the expected session key."""


def mac(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 truncated to :data:`MAC_SIZE` bytes."""
    return hmac.digest(key, data, "sha256")[:MAC_SIZE]


def verify_mac(key: bytes, data: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(mac(key, data), tag)


_BLOCK_SIZE = 64  # SHA-256's block size, in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def pad_states(key: bytes) -> PadStates:
    """The SHA-256 states after ``key XOR ipad`` and after ``key XOR opad``
    (a key longer than one block is hashed first, RFC 2104 section 2)."""
    if len(key) > _BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def hmac_sha256(pads: PadStates, data: bytes) -> bytes:
    """``hmac.digest(key, data, "sha256")`` from ``pad_states(key)``."""
    inner, outer = pads
    inner = inner.copy()
    inner.update(data)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def _derive_key(secret: bytes, a: str, b: str, epoch: int) -> bytes:
    material = b"|".join([secret, a.encode(), b.encode(), str(epoch).encode()])
    return hashlib.sha256(material).digest()


@dataclass
class Authenticator:
    """A vector of MACs, one per receiver, plus the key epochs used.

    ``tags`` maps receiver id -> (epoch, mac).  The epoch lets a receiver that
    has refreshed its keys reject MACs computed under stale keys.
    """

    sender: str
    tags: Dict[str, Tuple[int, bytes]] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return (MAC_SIZE + 4) * len(self.tags)


class KeyTable:
    """Pairwise session keys between principals, with per-principal epochs.

    In the real system each replica establishes session keys with every other
    principal via public-key handshakes and refreshes them during proactive
    recovery.  Here a shared ``secret`` seeds a deterministic derivation, and
    ``refresh`` bumps a principal's *inbound* epoch -- the property that
    matters to the protocol (old keys stop verifying) is preserved.

    Key direction: the key used for messages a -> b is derived from
    (a, b, epoch_of_b), i.e. the receiver controls freshness, matching the
    OSDI'00 design where the recovering replica picks new inbound keys.
    """

    def __init__(self, secret: bytes = b"repro-base-secret") -> None:
        self._secret = secret
        self._inbound_epoch: Dict[str, int] = {}
        # (sender, receiver, epoch) -> (derived key, its pad states)
        self._key_cache: Dict[Tuple[str, str, int], Tuple[bytes, PadStates]] = {}
        self.counters = Counters()

    def epoch_of(self, principal: str) -> int:
        return self._inbound_epoch.get(principal, 0)

    def refresh(self, principal: str) -> int:
        """Bump ``principal``'s inbound epoch (proactive-recovery key change)."""
        new_epoch = self.epoch_of(principal) + 1
        self._inbound_epoch[principal] = new_epoch
        # Keys derived under the principal's old inbound epochs are dead; drop
        # them so the cache tracks the live key set.
        self._key_cache = {
            k: v for k, v in self._key_cache.items()
            if not (k[1] == principal and k[2] < new_epoch)
        }
        return new_epoch

    def key(self, sender: str, receiver: str, epoch: Optional[int] = None) -> bytes:
        if epoch is None:
            epoch = self.epoch_of(receiver)
        return self._entry(sender, receiver, epoch)[0]

    def _entry(self, sender: str, receiver: str, epoch: int) -> Tuple[bytes, PadStates]:
        cache_key = (sender, receiver, epoch)
        entry = self._key_cache.get(cache_key)
        if entry is None:
            derived = _derive_key(self._secret, sender, receiver, epoch)
            entry = (derived, pad_states(derived))
            self._key_cache[cache_key] = entry
            self.counters.add("key_derivations")
        return entry

    def make_authenticator(self, sender: str, receivers, data: bytes) -> Authenticator:
        """MAC ``data`` once per receiver under current keys."""
        # Per tag: one epoch lookup, one key-cache lookup, one HMAC from the
        # cached pad states.  _entry() derives (and counts) on a miss, so
        # refresh() still invalidates.
        epochs = self._inbound_epoch
        keys = self._key_cache
        tags: Dict[str, Tuple[int, bytes]] = {}
        for receiver in receivers:
            if receiver == sender:
                continue
            epoch = epochs.get(receiver, 0)
            entry = keys.get((sender, receiver, epoch)) or self._entry(sender, receiver, epoch)
            tags[receiver] = (epoch, hmac_sha256(entry[1], data)[:MAC_SIZE])
        if tags:
            self.counters.add("mac_generate", len(tags))
        return Authenticator(sender, tags)

    def check_authenticator(self, auth: Authenticator, receiver: str, data: bytes) -> None:
        """Verify the receiver's entry; raise :class:`MacVerificationError`
        if absent, stale, or wrong."""
        self.counters.add("mac_verify")
        entry = auth.tags.get(receiver)
        if entry is None:
            raise MacVerificationError(
                f"no MAC for {receiver} in authenticator from {auth.sender}"
            )
        epoch, tag = entry
        current = self._inbound_epoch.get(receiver, 0)
        if epoch != current:
            raise MacVerificationError(
                f"stale key epoch {epoch} for {receiver} (current {current})"
            )
        sender = auth.sender
        entry = self._key_cache.get((sender, receiver, epoch)) or self._entry(sender, receiver, epoch)
        if not hmac.compare_digest(hmac_sha256(entry[1], data)[:MAC_SIZE], tag):
            raise MacVerificationError(f"bad MAC from {sender} to {receiver}")
