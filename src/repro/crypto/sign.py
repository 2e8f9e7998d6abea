"""Simulation-grade digital signatures.

PBFT signs view-change, new-view, and checkpoint messages (proofs must be
verifiable by third parties, which MAC authenticators are not).  We model a
signature as an HMAC under a per-principal secret derived from a master
secret held by the :class:`SignatureScheme`; the capability to *create*
signatures for a principal is the :class:`Signer` object handed out once at
key generation.  Fault injection never forges signatures — Byzantine replicas
misbehave using their *own* keys, matching the paper's fault model.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict

from repro.util.errors import AuthenticationError

SIG_SIZE = 32


class SignatureError(AuthenticationError):
    """A signature failed to verify."""


class Signer:
    """Capability to sign on behalf of one principal."""

    def __init__(self, principal: str, secret: bytes) -> None:
        self.principal = principal
        self._secret = secret

    def sign(self, data: bytes) -> bytes:
        return hmac.digest(self._secret, data, "sha256")


class SignatureScheme:
    """Key generation and verification registry shared by the whole system."""

    def __init__(self, master_secret: bytes = b"repro-base-signing") -> None:
        self._master = master_secret
        self._secrets: Dict[str, bytes] = {}

    def _secret_for(self, principal: str) -> bytes:
        secret = self._secrets.get(principal)
        if secret is None:
            secret = hashlib.sha256(self._master + b"/" + principal.encode()).digest()
            self._secrets[principal] = secret
        return secret

    def keygen(self, principal: str) -> Signer:
        return Signer(principal, self._secret_for(principal))

    def verify(self, principal: str, data: bytes, signature: bytes) -> bool:
        expected = hmac.digest(self._secret_for(principal), data, "sha256")
        return hmac.compare_digest(expected, signature)

    def check(self, principal: str, data: bytes, signature: bytes) -> None:
        if not self.verify(principal, data, signature):
            raise SignatureError(f"bad signature claimed from {principal}")
