"""Simulation-grade digital signatures.

PBFT signs view-change, new-view, and checkpoint messages (proofs must be
verifiable by third parties, which MAC authenticators are not).  We model a
signature as an HMAC under a per-principal secret derived from a master
secret held by the :class:`SignatureScheme`; the capability to *create*
signatures for a principal is the :class:`Signer` object handed out once at
key generation.  Fault injection never forges signatures — Byzantine replicas
misbehave using their *own* keys, matching the paper's fault model.  Both
sides hold the secret's HMAC pad states (:func:`repro.crypto.auth.pad_states`),
not the secret.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict

from repro.crypto.auth import PadStates, hmac_sha256, pad_states
from repro.util.errors import AuthenticationError

SIG_SIZE = 32


class SignatureError(AuthenticationError):
    """A signature failed to verify."""


class Signer:
    """Capability to sign on behalf of one principal."""

    def __init__(self, principal: str, pads: PadStates) -> None:
        self.principal = principal
        self._pads = pads

    def sign(self, data: bytes) -> bytes:
        return hmac_sha256(self._pads, data)


class SignatureScheme:
    """Key generation and verification registry shared by the whole system."""

    def __init__(self, master_secret: bytes = b"repro-base-signing") -> None:
        self._master = master_secret
        self._pads: Dict[str, PadStates] = {}

    def _pads_for(self, principal: str) -> PadStates:
        pads = self._pads.get(principal)
        if pads is None:
            pads = pad_states(hashlib.sha256(self._master + b"/" + principal.encode()).digest())
            self._pads[principal] = pads
        return pads

    def keygen(self, principal: str) -> Signer:
        return Signer(principal, self._pads_for(principal))

    def verify(self, principal: str, data: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(hmac_sha256(self._pads_for(principal), data), signature)

    def check(self, principal: str, data: bytes, signature: bytes) -> None:
        if not self.verify(principal, data, signature):
            raise SignatureError(f"bad signature claimed from {principal}")
