"""BFT client: the ``invoke`` side of the library (paper Figure 1).

``invoke`` multicasts an authenticated request to every replica,
retransmits until it collects f+1 matching replies (2f+1 for the read-only
optimization, which skips ordering), and returns the agreed result.  In the
simulator, the blocking form drives the event loop until the reply quorum
arrives; the async form takes a callback and is used when many clients run
concurrently inside one benchmark.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Optional, Tuple

from repro.bft.config import BFTConfig
from repro.bft.messages import Busy, Reply, Request, SpecReply
from repro.crypto.auth import KeyTable, MacVerificationError
from repro.net.network import Network
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.util.errors import ProtocolError
from repro.util.stats import Counters


class InvocationTimeout(ProtocolError):
    """A blocking invoke did not complete within its virtual-time budget."""


class _Invocation:
    __slots__ = (
        "request",
        "callback",
        "replies",
        "tentative",
        "read_only",
        "started",
        "retries",
        "busy_hint",
    )

    def __init__(self, request: Request, callback: Callable[[bytes], None]) -> None:
        self.request = request
        self.callback = callback
        self.replies: Dict[str, bytes] = {}
        self.tentative: Dict[str, Tuple[int, bytes]] = {}  # replica -> (view, result)
        self.read_only = request.read_only
        self.retries = 0
        self.busy_hint = 0.0  # latest server-suggested retry delay, seconds


class Client(Node):
    """Issues operations against the replicated service."""

    def __init__(
        self,
        client_id: str,
        sim: Simulator,
        network: Network,
        config: BFTConfig,
        keys: KeyTable,
    ) -> None:
        super().__init__(client_id, sim, network)
        self.config = config
        self.keys = keys
        self.counters = Counters()
        self._reqid = 0
        self._current: Optional[_Invocation] = None
        self._retry_timer = None  # EventHandle of the armed retransmission
        self._retry_fire_at = 0.0
        # Whom a leased read asks first (see _demote_unhelpful, which
        # replaces the list and never mutates it: this one is shared).
        self._read_order = config.replica_ids

    # -- public API (paper: int invoke(req, rep, read_only)) ------------------------

    def invoke_async(
        self,
        op: bytes,
        callback: Callable[[bytes], None],
        read_only: bool = False,
    ) -> int:
        """Send one operation; ``callback(result)`` fires on a reply quorum.

        One outstanding invocation per client, as in the BFT library."""
        if self._current is not None:
            raise ProtocolError(f"client {self.node_id} already has a request in flight")
        self._reqid += 1
        request = Request(
            client_id=self.node_id, reqid=self._reqid, op=op, read_only=read_only
        )
        self._current = _Invocation(request, callback)
        self.counters.add("invokes")
        if read_only:
            self.counters.add("read_only_invokes")
        self._transmit()
        self._arm_retry(self._reqid)
        return self._reqid

    def invoke(self, op: bytes, read_only: bool = False, timeout: float = 60.0) -> bytes:
        """Blocking invoke: drives the simulator until the result is known."""
        box: list = []
        self.invoke_async(op, box.append, read_only=read_only)
        ok = self.sim.run_until_condition(box.__len__, timeout=timeout)
        if not ok:
            raise InvocationTimeout(
                f"request {self._reqid} from {self.node_id} got no quorum "
                f"within {timeout}s of virtual time"
            )
        return box[0]

    def cancel(self) -> None:
        """Abandon the in-flight invocation (used by availability probes
        after a timeout; replicas may still execute the request)."""
        if self._current is not None:
            self.counters.add("invocations_cancelled")
            self._current = None
        self._disarm_retry()

    def _disarm_retry(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    # -- transmission / retry ----------------------------------------------------------

    def _transmit(self) -> None:
        invocation = self._current
        if invocation is None:
            return
        request = invocation.request
        request.auth = self.keys.make_authenticator(
            self.node_id, self.config.replica_ids, request.signable_bytes()
        )
        if invocation.read_only and self.config.read_leases:
            # Leased reads go to just 2f+1 replicas, the first of our
            # preference order; the safety condition is unchanged (2f+1
            # matching results), so this only narrows fan-out.  A read is
            # never retransmitted: on timeout _retry re-issues it as an
            # ordered request, which goes to everyone.
            self.counters.add("leased_read_sends")
            self.multicast(self._read_order[: self.config.quorum], request)
        else:
            self.multicast(self.config.replica_ids, request)

    def _arm_retry(self, reqid: int) -> None:
        """Deterministic capped exponential backoff: retry ``k`` waits
        ``client_retry * 2**k`` seconds, capped at ``client_retry_max`` — so
        a cluster that is slow because it is repairing itself is not also
        hammered by retransmission storms.  A ``Busy`` hint from the primary
        raises the floor to the server's suggestion plus deterministic
        per-client jitter, de-synchronizing the retry herd."""
        invocation = self._current
        if invocation is not None and invocation.read_only:
            delay = self.config.read_only_timeout
        else:
            retries = invocation.retries if invocation is not None else 0
            delay = self.config.client_retry * (2.0 ** retries)
            if delay > self.config.client_retry_max:
                delay = self.config.client_retry_max
                self.counters.add("retry_backoff_capped")
            hint = invocation.busy_hint if invocation is not None else 0.0
            if hint > 0.0:
                congestion = self._clamp_hint(hint)
                if congestion > delay:
                    delay = congestion
                delay += self._retry_jitter(reqid, retries, delay)
        self._retry_fire_at = self.now() + delay
        self._retry_timer = self.set_timer(delay, lambda: self._retry(reqid))

    def _clamp_hint(self, hint: float) -> float:
        """Server suggestions are advice, not authority: never retry sooner
        than our own initial delay, never wait beyond twice our cap (a
        Byzantine primary must not be able to park a client forever)."""
        low = self.config.client_retry
        high = 2.0 * self.config.client_retry_max
        return min(max(hint, low), high)

    def _retry_jitter(self, reqid: int, retries: int, delay: float) -> float:
        """Deterministic per-client jitter, up to 25% of the delay — shed
        clients all got Busy at the same instant; without jitter they would
        all come back at the same instant too."""
        seed = f"{self.node_id}:{reqid}:{retries}".encode()
        return 0.25 * delay * ((zlib.crc32(seed) % 1024) / 1024.0)

    def _retry(self, reqid: int) -> None:
        invocation = self._current
        if invocation is None or invocation.request.reqid != reqid:
            return
        invocation.retries += 1
        self.counters.add("request_retransmissions")
        if invocation.read_only:
            # Read-only fallback: reissue as a regular, ordered request.
            self.counters.add("read_only_fallbacks")
            if self.config.read_leases:
                self._demote_unhelpful(invocation.replies)
            callback = invocation.callback
            op = invocation.request.op
            self._current = None
            self.invoke_async(op, callback, read_only=False)
            return
        self._transmit()
        self._arm_retry(reqid)

    def _demote_unhelpful(self, replies: Dict[str, bytes]) -> None:
        """A leased read timed out: of the replicas asked, those outside the
        largest matching group — silent or deviant — are asked last from now
        on, so one crashed (or lying) replica among the first 2f+1 costs one
        timeout, not every read.  Whoever was not asked moves up untested,
        which is what makes the order self-correcting."""
        results = list(replies.values())
        best = max(results, key=results.count, default=None)
        asked = self._read_order[: self.config.quorum]
        demoted = [r for r in asked if r not in replies or replies[r] != best]
        self._read_order = [r for r in self._read_order if r not in demoted] + demoted

    # -- replies --------------------------------------------------------------------------

    def on_message(self, message, src: str) -> None:
        if isinstance(message, Busy):
            self._on_busy(message, src)
            return
        if isinstance(message, SpecReply):
            self._on_spec_reply(message, src)
            return
        if not isinstance(message, Reply):
            self.counters.add("unknown_message")
            return
        invocation = self._current
        if invocation is None:
            return
        if message.reqid != invocation.request.reqid:
            return
        if message.replica_id != src or src not in self.config.replica_ids:
            return
        if message.auth is None:
            return
        try:
            self.keys.check_authenticator(
                message.auth, self.node_id, message.signable_bytes()
            )
        except MacVerificationError:
            self.counters.add("reply_bad_auth")
            return
        invocation.replies[src] = message.result
        self._note_reply(message, src)
        needed = self.config.quorum if invocation.read_only else self.config.weak_quorum
        matching = [
            r for r in invocation.replies.values() if r == message.result
        ]
        if len(matching) >= needed:
            self.counters.add("replies_accepted")
            self._current = None
            self._disarm_retry()
            invocation.callback(message.result)

    def _note_reply(self, message: Reply, src: str) -> None:
        """Hook for subclasses that need per-replica reply provenance (the
        transactional vote client snapshots it into commit certificates)."""

    def _on_spec_reply(self, message: SpecReply, src: str) -> None:
        """Tentative replies from speculating replicas.  Acceptance rule (the
        BFT library's tentative-execution optimization): 2f+1 matching
        tentative replies *from the same view* — quorum intersection with the
        view-change quorum then guarantees the tentative order survives any
        view change, so the result is as good as committed.  Tentative and
        committed replies are never mixed toward one quorum."""
        invocation = self._current
        if invocation is None or invocation.read_only:
            return
        if message.reqid != invocation.request.reqid:
            return
        if message.replica_id != src or src not in self.config.replica_ids:
            return
        if message.auth is None:
            return
        try:
            self.keys.check_authenticator(
                message.auth, self.node_id, message.signable_bytes()
            )
        except MacVerificationError:
            self.counters.add("reply_bad_auth")
            return
        invocation.tentative[src] = (message.view, message.result)
        matching = [
            t
            for t in invocation.tentative.values()
            if t == (message.view, message.result)
        ]
        if len(matching) >= self.config.quorum:
            self.counters.add("replies_accepted")
            self.counters.add("tentative_replies_accepted")
            self._current = None
            self._disarm_retry()
            invocation.callback(message.result)

    def _on_busy(self, busy: Busy, src: str) -> None:
        """The primary shed our request but is demonstrably alive: adopt its
        retry suggestion and stretch the pending retransmission — later only,
        never sooner, and never beyond twice our own cap."""
        invocation = self._current
        if invocation is None or invocation.read_only:
            return
        if busy.reqid != invocation.request.reqid:
            return
        if busy.replica_id != src or src not in self.config.replica_ids:
            return
        if busy.auth is None or busy.auth.sender != busy.replica_id:
            return
        try:
            self.keys.check_authenticator(
                busy.auth, self.node_id, busy.signable_bytes()
            )
        except MacVerificationError:
            self.counters.add("busy_bad_auth")
            return
        self.counters.add("busy_replies_received")
        hint = busy.retry_after_micros / 1_000_000.0
        invocation.busy_hint = hint
        stretched = self._clamp_hint(hint)
        stretched += self._retry_jitter(busy.reqid, invocation.retries, stretched)
        proposed = self.now() + stretched
        if self._retry_timer is not None and proposed > self._retry_fire_at:
            self._disarm_retry()
            self._retry_fire_at = proposed
            self._retry_timer = self.set_timer(
                proposed - self.now(), lambda: self._retry(busy.reqid)
            )
            self.counters.add("retries_stretched_by_busy")
