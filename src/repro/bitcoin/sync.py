"""Headers-first catch-up synchronization for the P2P simulator.

A node that reconnects after a partition heal or a restart — or that
receives an orphan block and realizes it is behind — cannot rely on
gossip alone: the relays it missed are gone.  Real networks dedicate
whole protocol documents to this recovery path (Lightning BOLT #2's
reconnection/retransmission rules are the closest analogue); Bitcoin
Core's answer is the getheaders/getdata dance this module models:

1. send the peer a block locator (dense near our tip, exponentially
   sparse toward genesis, :meth:`Blockchain.locator`);
2. the peer answers with the active-chain hashes after the first
   locator entry it recognizes (:meth:`Blockchain.hashes_after`);
3. request each unknown block in order (parents first, so nothing is
   parked as an orphan), submitting each through normal validation;
4. repeat from (1) until a headers round brings nothing new.

Every request leg travels over the same faulty links as gossip — it can
be dropped, duplicated or delayed by the edge's
:class:`~repro.bitcoin.faults.LinkPolicy` — so each round-trip carries a
per-request timeout with exponential backoff and capped retries.  A
session that exhausts its retries fails (``sync.failed``); the next
orphan or reconnect starts a fresh one.  At most one session per
(node, peer) pair is active at a time.

All progress is observable: ``sync.started`` / ``sync.headers`` /
``sync.request`` / ``sync.timeout`` / ``sync.completed`` /
``sync.failed`` events plus the ``sync.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.backoff import backoff_delay, derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.bitcoin.network import Node

__all__ = ["SyncConfig", "SyncSession", "start_sync"]


@dataclass(frozen=True)
class SyncConfig:
    """Retry/timeout knobs for one catch-up session.

    The two times are counted in the requesting node's mean hop latency,
    not seconds (30 s and 240 s at the default 2 s hop): a timeout that
    suits a 2 s link presumes every request lost on a 180 s one.
    """

    timeout_hops: float = 15.0  # hops before a request is presumed lost
    backoff: float = 2.0  # timeout multiplier per retry
    max_timeout_hops: float = 120.0  # cap on the backed-off timeout
    jitter: float = 0.2  # ± fraction of timeout, seeded per (node, peer)
    max_retries: int = 4  # attempts per request before the session fails
    max_headers: int = 2000  # hashes per getheaders response


def start_sync(
    node: "Node",
    peer: "Node",
    reason: str = "reconnect",
    config: SyncConfig | None = None,
) -> "SyncSession | None":
    """Begin a catch-up sync of ``node`` from ``peer``.

    Returns the new session, or None when one is already running against
    that peer (reconnect storms and orphan floods collapse into a single
    session) or the node is down.
    """
    if not node.alive:
        return None
    if peer.name in node._syncs:
        return None
    session = SyncSession(node, peer, reason, config or SyncConfig())
    node._syncs[peer.name] = session
    session.start()
    return session


class SyncSession:
    """One headers-first catch-up exchange between a node and a peer."""

    def __init__(
        self, node: "Node", peer: "Node", reason: str, config: SyncConfig
    ):
        self.node = node
        self.peer = peer
        self.reason = reason
        self.config = config
        # Jitter decorrelates (node, peer) pairs that time out together —
        # without it, every reconnecting peer re-requests in lockstep and
        # re-creates the loss burst that failed them.  The stream derives
        # from the simulation seed and the pair identity, NOT sim.rng:
        # drawing from the shared stream would perturb every seeded
        # scenario pinned by the recorded benchmark trajectories.
        self._backoff_rng = derive_rng(
            "sync-backoff", node.sim.seed, node.name, peer.name
        )
        self.done = False
        self.succeeded = False
        self.blocks_fetched = 0
        self._pending: list[bytes] = []
        # Monotonic request id; a reply or timeout for anything but the
        # latest outstanding request is stale and ignored.
        self._req_seq = 0
        self._outstanding: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if obs.ENABLED:
            obs.inc("sync.sessions_total")
            obs.emit(
                "sync.started",
                node=self.node.name,
                peer=self.peer.name,
                reason=self.reason,
            )
        self._request_headers(attempt=1)

    def abort(self, reason: str) -> None:
        """Tear the session down early (disconnect, ban, crash)."""
        self._finish(ok=False, reason=reason)

    def _finish(self, ok: bool, reason: str = "") -> None:
        if self.done:
            return
        self.done = True
        self.succeeded = ok
        if self.node._syncs.get(self.peer.name) is self:
            self.node._syncs.pop(self.peer.name, None)
        if obs.ENABLED:
            if ok:
                obs.emit(
                    "sync.completed",
                    node=self.node.name,
                    peer=self.peer.name,
                    blocks=self.blocks_fetched,
                )
            else:
                obs.inc("sync.failures_total")
                obs.emit(
                    "sync.failed",
                    node=self.node.name,
                    peer=self.peer.name,
                    reason=reason,
                )

    # ------------------------------------------------------------------
    # Request/response plumbing
    # ------------------------------------------------------------------

    def _roundtrip(
        self,
        what: str,
        attempt: int,
        make_reply: Callable[[], object],
        on_reply: Callable[[object], None],
        retry: Callable[[int], None],
        request_size: int = 0,
        reply_size: Callable[[object], int] | None = None,
    ) -> None:
        """One request over the link and back, with timeout + retry.

        Both legs ride :meth:`Node.send_to`, so either can be dropped or
        delayed by the edge's fault policy; ``make_reply`` runs on the
        peer's side *at arrival time* (the reply reflects the peer's
        state then, not when the request was sent).  ``request_size`` and
        ``reply_size(reply)`` feed the relay-byte accounting; both legs
        are charged to the ``sync`` message kind.
        """
        self._req_seq += 1
        req = self._req_seq
        self._outstanding = req
        node, peer = self.node, self.peer

        def deliver(reply: object) -> None:
            if self.done or not node.alive:
                return
            if self._outstanding != req:
                return  # timed out and retried; stale reply
            self._outstanding = None
            on_reply(reply)

        def peer_side() -> None:
            if self.done or not peer.alive:
                return  # request reached a dead host: no reply, timeout
            reply = make_reply()
            peer.send_to(
                node,
                lambda: deliver(reply),
                msg="sync",
                size=reply_size(reply) if reply_size is not None else 0,
            )

        if obs.ENABLED:
            obs.emit(
                "sync.request",
                node=node.name,
                peer=peer.name,
                what=what,
                attempt=attempt,
            )
        node.send_to(peer, peer_side, msg="sync", size=request_size)

        def on_timeout() -> None:
            if self.done or self._outstanding != req:
                return
            self._outstanding = None
            if obs.ENABLED:
                obs.inc("sync.timeouts_total")
                obs.emit(
                    "sync.timeout",
                    node=node.name,
                    peer=peer.name,
                    what=what,
                    attempt=attempt,
                )
            if attempt >= self.config.max_retries:
                self._finish(ok=False, reason=f"{what}: retries exhausted")
                return
            if obs.ENABLED:
                obs.inc("sync.retries_total")
            retry(attempt + 1)

        node.sim.schedule(self._timeout(attempt), on_timeout)

    def _timeout(self, attempt: int) -> float:
        """Seconds to wait for the reply to the ``attempt``-th try."""
        hop = self.node.latency
        return backoff_delay(
            attempt,
            base=self.config.timeout_hops * hop,
            cap=self.config.max_timeout_hops * hop,
            factor=self.config.backoff,
            jitter=self.config.jitter,
            rng=self._backoff_rng,
        )

    # ------------------------------------------------------------------
    # Protocol stages
    # ------------------------------------------------------------------

    def _request_headers(self, attempt: int) -> None:
        locator = self.node.chain.locator()

        def make_reply() -> object:
            return self.peer.chain.hashes_after(
                locator, self.config.max_headers
            )

        def reply_size(hashes: object) -> int:
            return 9 + 32 * len(hashes)  # varint count + hashes

        def on_reply(hashes: object) -> None:
            assert isinstance(hashes, list)
            if obs.ENABLED:
                obs.emit(
                    "sync.headers",
                    node=self.node.name,
                    peer=self.peer.name,
                    count=len(hashes),
                )
            self._pending = [
                h for h in hashes if not self.node.chain.has_block(h)
            ]
            if not self._pending:
                # Nothing the peer has that we don't: caught up.
                self._finish(ok=True)
                return
            self._next_block()

        self._roundtrip(
            "headers",
            attempt,
            make_reply,
            on_reply,
            self._request_headers,
            request_size=9 + 32 * len(locator),
            reply_size=reply_size,
        )

    def _next_block(self) -> None:
        while self._pending:
            block_hash = self._pending.pop(0)
            if self.node.chain.has_block(block_hash):
                continue  # arrived via gossip while we were fetching
            self._request_block(block_hash, attempt=1)
            return
        # Batch exhausted; the peer's tip may have advanced (or the batch
        # was clipped at max_headers) — ask for headers again.  A round
        # that brings nothing new completes the session.
        self._request_headers(attempt=1)

    def _request_block(
        self, block_hash: bytes, attempt: int, full: bool = False
    ) -> None:
        """Fetch one block; compact form when both ends opted in.

        With compact relay enabled on both endpoints the peer answers
        with a :class:`~repro.bitcoin.compact.CompactBlock` (unless the
        block is coinbase-only, where short ids save nothing).  The
        receiver attempts a *local-only* reconstruction — no extra
        round-trip — and on any miss simply re-requests the full block
        (``full=True``): catch-up blocks are usually past the mempool's
        horizon, so the miss path must stay a single clean retry.
        """

        def make_reply() -> object:
            entry = self.peer.chain.entry(block_hash)
            if entry is None:
                return None
            # A fetched block continues the peer's propagation tree one
            # hop deeper, exactly like a gossip relay would have.
            hop = self.peer.relay._block_hops.get(block_hash, 0) + 1
            block = entry.block
            if (
                not full
                and self.node.compact_relay
                and self.peer.compact_relay
                and len(block.txs) > 1
            ):
                return ("compact", self.peer.compact.announcement(block), hop)
            return ("block", block, hop)

        def reply_size(reply: object) -> int:
            if reply is None:
                return 40
            _, payload, _ = reply
            return payload.serialized_size()

        def on_reply(reply: object) -> None:
            if reply is None:
                # The peer no longer has (or never had) the block — it
                # reorged away between headers and getdata.  Re-anchor.
                self._request_headers(attempt=1)
                return
            kind, payload, hop = reply
            if kind == "compact":
                block = self.node.compact.reconstruct_local(payload)
                if block is None:
                    # Mempool miss or false match: one clean full retry.
                    if obs.ENABLED:
                        obs.inc("sync.compact_fallback_total")
                    self._request_block(block_hash, attempt=1, full=True)
                    return
                if obs.ENABLED:
                    obs.inc("sync.compact_hits_total")
            else:
                block = payload
            self.node.submit_block(block, origin=self.peer, hop=hop)
            if self.node.chain.has_block(block_hash):
                # Fetched means the node has it now — not that a reply
                # came, which the node may have refused.
                self.blocks_fetched += 1
                if obs.ENABLED:
                    obs.inc("sync.blocks_fetched_total")
            if self.done or not self.node.alive:
                return
            self._next_block()

        self._roundtrip(
            f"block:{block_hash.hex()[:12]}",
            attempt,
            make_reply,
            on_reply,
            lambda next_attempt: self._request_block(
                block_hash, next_attempt, full=full
            ),
            request_size=36,
            reply_size=reply_size,
        )
