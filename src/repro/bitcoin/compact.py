"""BIP 152-style compact block relay primitives.

Flood relay sends every transaction in a block to every peer a second
time, even though gossip already delivered almost all of them to every
mempool.  Compact relay exploits that: a block announcement carries the
80-byte header, a salt, and one 6-byte *short id* per transaction; the
receiver reconstructs the block from its own mempool and only round-trips
(``getblocktxn``/``blocktxn``) for the few transactions it is missing.
Relay bytes become sublinear in block size — the property the swarm-scale
item in ROADMAP.md needs.

The short id is the low 48 bits of SipHash-2-4 over the txid, keyed from
SHA-256 of the header plus a per-sender salt ("nonce").  Salting means a
collision an attacker grinds against one peer's key is useless against
another's; 48 bits keeps the accidental-collision rate negligible at
mempool scale (~1 in 2^48 per pair).  Collisions are still *possible*, so
reconstruction treats an ambiguous or false match as a miss, and the
relay layer falls back to requesting the full block — per BIP 152, a
collision is never treated as peer misbehavior.

First the data plane: hashing, encoding sizes, reconstruction.  Then
:class:`CompactRelay`, the per-node protocol handler that schedules the
recovery ladder (round-trips, timeouts, fallback, penalties).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.bitcoin.block import Block, BlockHeader
from repro.bitcoin.sync import start_sync
from repro.bitcoin.transaction import Transaction, varint

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.bitcoin.network import Node

__all__ = [
    "COMPACT_MAX_ATTEMPTS",
    "COMPACT_TXN_TIMEOUT",
    "POINTS_BAD_COMPACT",
    "SHORT_ID_BYTES",
    "CompactBlock",
    "CompactRelay",
    "MalformedCompactError",
    "PrefilledTransaction",
    "ReconstructionResult",
    "blocktxn_size",
    "finalize",
    "getblocktxn_size",
    "reconstruct",
    "short_id_key",
    "short_txid",
    "siphash24",
]

SHORT_ID_BYTES = 6

_MASK64 = 0xFFFFFFFFFFFFFFFF


class MalformedCompactError(Exception):
    """A compact block that no honest sender could have produced
    (out-of-range or duplicate prefilled indexes)."""


def siphash24(key: bytes, data: bytes) -> int:
    """SipHash-2-4 of ``data`` under a 16-byte ``key`` (64-bit result).

    Pure-python transcription of the reference algorithm (Aumasson &
    Bernstein); the compression rounds are inlined because this runs once
    per mempool transaction per compact block received.
    """
    if len(key) != 16:
        raise ValueError("siphash key must be 16 bytes")
    k0 = int.from_bytes(key[:8], "little")
    k1 = int.from_bytes(key[8:], "little")
    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573
    length = len(data)
    tail = length & 7
    # Final word: remaining bytes plus the length in the top byte.
    last = (length & 0xFF) << 56 | int.from_bytes(
        data[length - tail :] if tail else b"", "little"
    )
    words = [
        int.from_bytes(data[i : i + 8], "little")
        for i in range(0, length - tail, 8)
    ]
    words.append(last)
    for m in words:
        v3 ^= m
        for _ in range(2):  # SipRound x2 (compression)
            v0 = (v0 + v1) & _MASK64
            v1 = ((v1 << 13) | (v1 >> 51)) & _MASK64
            v1 ^= v0
            v0 = ((v0 << 32) | (v0 >> 32)) & _MASK64
            v2 = (v2 + v3) & _MASK64
            v3 = ((v3 << 16) | (v3 >> 48)) & _MASK64
            v3 ^= v2
            v0 = (v0 + v3) & _MASK64
            v3 = ((v3 << 21) | (v3 >> 43)) & _MASK64
            v3 ^= v0
            v2 = (v2 + v1) & _MASK64
            v1 = ((v1 << 17) | (v1 >> 47)) & _MASK64
            v1 ^= v2
            v2 = ((v2 << 32) | (v2 >> 32)) & _MASK64
        v0 ^= m
    v2 ^= 0xFF
    for _ in range(4):  # SipRound x4 (finalization)
        v0 = (v0 + v1) & _MASK64
        v1 = ((v1 << 13) | (v1 >> 51)) & _MASK64
        v1 ^= v0
        v0 = ((v0 << 32) | (v0 >> 32)) & _MASK64
        v2 = (v2 + v3) & _MASK64
        v3 = ((v3 << 16) | (v3 >> 48)) & _MASK64
        v3 ^= v2
        v0 = (v0 + v3) & _MASK64
        v3 = ((v3 << 21) | (v3 >> 43)) & _MASK64
        v3 ^= v0
        v2 = (v2 + v1) & _MASK64
        v1 = ((v1 << 17) | (v1 >> 47)) & _MASK64
        v1 ^= v2
        v2 = ((v2 << 32) | (v2 >> 32)) & _MASK64
    return (v0 ^ v1 ^ v2 ^ v3) & _MASK64


def short_id_key(header: BlockHeader, nonce: int) -> bytes:
    """The per-announcement SipHash key: SHA-256(header || nonce)[:16]."""
    digest = hashlib.sha256(
        header.serialize() + nonce.to_bytes(8, "little")
    ).digest()
    return digest[:16]


def short_txid(key: bytes, txid: bytes) -> bytes:
    """The 6-byte (48-bit) salted short id of one transaction."""
    return (siphash24(key, txid) & 0xFFFFFFFFFFFF).to_bytes(
        SHORT_ID_BYTES, "little"
    )


@dataclass(frozen=True)
class PrefilledTransaction:
    """A transaction shipped in full inside the announcement.

    The coinbase is always prefilled — it is freshly minted by the block's
    miner, so no mempool on earth holds it.  ``index`` is the absolute
    position in the block (BIP 152 differentially encodes it on the wire;
    we keep it absolute and account for the encoded size separately).
    """

    index: int
    tx: Transaction


@dataclass(frozen=True)
class CompactBlock:
    """A block announcement: header + salt + short ids + prefilled txs."""

    header: BlockHeader
    nonce: int
    short_ids: tuple[bytes, ...]
    prefilled: tuple[PrefilledTransaction, ...]

    @property
    def hash(self) -> bytes:
        return self.header.hash

    @property
    def tx_count(self) -> int:
        return len(self.short_ids) + len(self.prefilled)

    @staticmethod
    def from_block(
        block: Block, salt: bytes = b"", nonce: int | None = None
    ) -> "CompactBlock":
        """Announce ``block``, prefilled with its coinbase.

        ``nonce`` defaults to a deterministic digest of the block hash and
        the sender ``salt`` — per-sender keys without touching any seeded
        simulation RNG stream.
        """
        if nonce is None:
            nonce = int.from_bytes(
                hashlib.sha256(b"compact-nonce" + block.hash + salt).digest()[
                    :8
                ],
                "little",
            )
        key = short_id_key(block.header, nonce)
        return CompactBlock(
            header=block.header,
            nonce=nonce,
            short_ids=tuple(
                short_txid(key, tx.txid) for tx in block.txs[1:]
            ),
            prefilled=(PrefilledTransaction(0, block.txs[0]),),
        )

    def serialized_size(self) -> int:
        """Wire bytes of this announcement (header, nonce, varint-counted
        short ids, varint-indexed prefilled transactions)."""
        size = 80 + 8
        size += len(varint(len(self.short_ids)))
        size += SHORT_ID_BYTES * len(self.short_ids)
        size += len(varint(len(self.prefilled)))
        for pf in self.prefilled:
            size += len(varint(pf.index)) + len(pf.tx.serialize())
        return size


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of a mempool-based reconstruction attempt.

    ``txs`` has one slot per block transaction (None where unresolved);
    ``missing`` lists the unresolved absolute indexes to put in a
    ``getblocktxn``; ``collisions`` counts short ids that matched more
    than one distinct mempool transaction (each treated as a miss).
    """

    txs: tuple[Transaction | None, ...]
    missing: tuple[int, ...]
    collisions: int

    @property
    def complete(self) -> bool:
        return not self.missing


def reconstruct(compact: CompactBlock, mempool) -> ReconstructionResult:
    """Fill the block's transaction list from ``mempool`` by short id.

    A short id matching two distinct mempool transactions is ambiguous and
    counted as a miss (the round-trip resolves it); a short id matching
    nothing is a plain miss.  Raises :class:`MalformedCompactError` for
    announcements no honest peer could send.
    """
    total = len(compact.short_ids) + len(compact.prefilled)
    txs: list[Transaction | None] = [None] * total
    prefilled_slots = set()
    for pf in compact.prefilled:
        if not 0 <= pf.index < total:
            raise MalformedCompactError(
                f"prefilled index {pf.index} out of range 0..{total - 1}"
            )
        if pf.index in prefilled_slots:
            raise MalformedCompactError(
                f"duplicate prefilled index {pf.index}"
            )
        prefilled_slots.add(pf.index)
        txs[pf.index] = pf.tx
    key = short_id_key(compact.header, compact.nonce)
    # Short id -> mempool tx; ambiguous ids collapse to None.
    by_sid: dict[bytes, Transaction | None] = {}
    collisions = 0
    for entry in mempool.transactions():
        sid = short_txid(key, entry.tx.txid)
        held = by_sid.get(sid)
        if sid in by_sid:
            if held is not None and held.txid != entry.tx.txid:
                by_sid[sid] = None
                collisions += 1
        else:
            by_sid[sid] = entry.tx
    missing: list[int] = []
    sid_iter = iter(compact.short_ids)
    for slot in range(total):
        if slot in prefilled_slots:
            continue
        sid = next(sid_iter)
        tx = by_sid.get(sid)
        if tx is None:
            missing.append(slot)
        else:
            txs[slot] = tx
    return ReconstructionResult(
        txs=tuple(txs), missing=tuple(missing), collisions=collisions
    )


def finalize(
    compact: CompactBlock, txs: tuple[Transaction | None, ...]
) -> Block | None:
    """Assemble and merkle-check the reconstructed block.

    None means the transaction list does not hash to the announced merkle
    root — a short-id *false match* filled some slot with the wrong
    mempool transaction.  That is the innocent collision case: the caller
    must fall back to fetching the full block, not penalize anyone.
    """
    if any(tx is None for tx in txs):
        return None
    block = Block(compact.header, list(txs))
    if block.compute_merkle_root() != compact.header.merkle_root:
        return None
    return block


# -- wire-size accounting for the round-trip messages -------------------
#
# The simulator never serializes these messages (delivery is a scheduled
# closure), but relay-byte accounting needs honest sizes: a compact
# scheme that hid its round-trip cost would game the benchmark.

#: ``getdata``-style full-block request: 32-byte hash + 4-byte type tag.
GETBLOCK_SIZE = 36


def getblocktxn_size(index_count: int) -> int:
    """Request bytes: block hash + varint count + ~3 bytes per differential
    varint index (BIP 152 encodes indexes as deltas; 3 is a generous
    per-entry bound for blocks under ~65k transactions)."""
    return 32 + len(varint(index_count)) + 3 * index_count


def blocktxn_size(txs) -> int:
    """Reply bytes: block hash + varint count + the transactions."""
    total = 32 + len(varint(len(txs)))
    for tx in txs:
        total += len(tx.serialize())
    return total


# ----------------------------------------------------------------------
# The protocol handler: announce, reconstruct, recover
# ----------------------------------------------------------------------

# Misbehavior points (see Node.penalize) for a compact announcement the
# sender then refuses to back with data (no blocktxn / no full block / a
# block that doesn't match its own hash), or one no honest sender could
# have built: an honest sender always has the block it announced.  Short-id
# *collisions* never score — per BIP 152 they can happen to honest peers.
POINTS_BAD_COMPACT = 10

# Round-trip recovery: how long to wait for a blocktxn or full-block reply
# before retrying, and how many attempts per stage.  The timeout scales
# with the attempt number (fixed schedule, no RNG: recovery scheduling
# must not perturb the seeded hop-delay streams).
COMPACT_TXN_TIMEOUT = 30.0
COMPACT_MAX_ATTEMPTS = 2


@dataclass
class _PendingCompact:
    """A compact block mid-recovery (missing txs or full-block fetch)."""

    compact: CompactBlock
    origin: "Node"
    hop: int
    txs: list[Transaction | None]
    missing: list[int]
    req_seq: int = 0
    fell_back: bool = False


class CompactRelay:
    """One node's half of compact block relay: it holds the node and owns
    the reconstructions in flight.  The seen-set and the tail every
    received block shares are the gossip handler's, ``node.relay``."""

    def __init__(self, node: "Node"):
        self.node = node
        self.reset()

    def reset(self) -> None:
        """Forget every reconstruction in flight (a crash does)."""
        # Compact blocks awaiting a getblocktxn/full-block round-trip.
        self._compact_pending: dict[bytes, _PendingCompact] = {}

    def announcement(self, block: Block) -> CompactBlock:
        """``block`` as this node announces it: salted with the sender's
        name so every sender keys short ids differently (grinding a
        collision against one peer's key buys nothing against another's).
        """
        return CompactBlock.from_block(block, salt=self.node.name.encode())

    def reconstruct_local(self, cb: CompactBlock) -> Block | None:
        """Mempool-only reconstruction (no getblocktxn round-trip; None
        means fetch the full block) — what a catch-up sync reply gets."""
        try:
            result = reconstruct(cb, self.node.mempool)
        except MalformedCompactError:
            return None
        if not result.complete:
            return None
        return finalize(cb, result.txs)

    def _submit_compact_block(
        self, cb: CompactBlock, origin: "Node | None", hop: int
    ) -> None:
        node, relay = self.node, self.node.relay
        if obs.ENABLED:
            obs.inc("compact.blocks_total")
        fresh = relay._first_sight(cb.hash, origin, hop)
        if not fresh or cb.hash in self._compact_pending:
            return
        if node.chain.has_block(cb.hash):
            return
        try:
            result = reconstruct(cb, node.mempool)
        except MalformedCompactError as exc:
            # No honest sender builds an announcement like this.  Forget
            # the hash so a real block with this header (if one exists)
            # is not shadowed by the garbage announcement.
            relay._seen_blocks.pop(cb.hash)
            node.penalize(
                origin, POINTS_BAD_COMPACT, f"malformed compact block: {exc}"
            )
            return
        if obs.ENABLED:
            if result.collisions:
                obs.inc("compact.collisions_total", result.collisions)
            obs.emit(
                "compact.received",
                node=node.name,
                hash=cb.hash,
                txs=cb.tx_count,
                missing=len(result.missing),
            )
        if result.complete:
            block = finalize(cb, result.txs)
            if block is not None:
                if obs.ENABLED:
                    obs.inc("compact.reconstructed_total")
                relay._accept_block(block, origin, hop)
                return
            # Every slot filled, but the merkle root disagrees: a short id
            # matched the wrong mempool transaction (innocent collision).
            # Fetch the full block; nobody is penalized.
        elif obs.ENABLED:
            obs.inc("compact.misses_total", len(result.missing))
        if origin is None or not origin.alive:
            # Nobody to round-trip with; forget the announcement so a
            # later full relay or sync can deliver the block.
            relay._seen_blocks.pop(cb.hash)
            return
        self._compact_pending[cb.hash] = _PendingCompact(
            compact=cb, origin=origin, hop=hop,
            txs=list(result.txs), missing=list(result.missing),
        )
        if result.complete:
            self._fallback_full(cb.hash, reason="false-match")
        else:
            self._request_block_txns(cb.hash, attempt=1)

    def _request_block_txns(self, block_hash: bytes, attempt: int) -> None:
        """Ask the announcing peer for the block's missing transactions."""
        pending = self._compact_pending.get(block_hash)
        if pending is None:
            return
        node, origin = self.node, pending.origin
        pending.req_seq += 1
        req = pending.req_seq
        indexes = tuple(pending.missing)
        if obs.ENABLED:
            obs.inc("compact.roundtrips_total")
            obs.emit(
                "compact.getblocktxn",
                node=node.name,
                peer=origin.name,
                hash=block_hash,
                indexes=len(indexes),
            )
        node.send_to(
            origin,
            lambda: origin.compact._serve_block_txns(
                node, block_hash, indexes, req
            ),
            msg="getblocktxn",
            size=getblocktxn_size(len(indexes)),
        )
        node.sim.schedule(
            COMPACT_TXN_TIMEOUT * attempt,
            lambda: self._on_compact_timeout(
                block_hash, req, attempt, stage="blocktxn"
            ),
        )

    def _serve_block_txns(
        self,
        requester: "Node",
        block_hash: bytes,
        indexes: tuple[int, ...],
        req: int,
    ) -> None:
        """Peer side of ``getblocktxn``: reply with the requested
        transactions, or None if we don't actually have the block."""
        node = self.node
        if not node.alive:
            return
        entry = node.chain.entry(block_hash)
        payload = None
        if entry is not None and all(
            0 <= i < len(entry.block.txs) for i in indexes
        ):
            payload = tuple(entry.block.txs[i] for i in indexes)
        node.send_to(
            requester,
            lambda: requester.compact._on_block_txns(block_hash, req, payload),
            msg="blocktxn",
            size=blocktxn_size(payload) if payload is not None else 40,
        )

    def _on_block_txns(
        self,
        block_hash: bytes,
        req: int,
        payload: "tuple[Transaction, ...] | None",
    ) -> None:
        node = self.node
        if not node.alive:
            return
        pending = self._compact_pending.get(block_hash)
        if pending is None or pending.req_seq != req:
            return  # resolved, superseded, or timed out meanwhile
        with obs.node_scope(node.name if obs.ENABLED else None):
            if payload is None or len(payload) != len(pending.missing):
                self._withheld(block_hash, pending, "blocktxn")
                return
            for slot, tx in zip(pending.missing, payload):
                pending.txs[slot] = tx
            block = finalize(pending.compact, tuple(pending.txs))
            if block is None:
                # Merkle mismatch *after* an honest round-trip: one of our
                # local short-id matches was a false positive.  Innocent —
                # fall back to the full block.
                self._fallback_full(block_hash, reason="merkle-mismatch")
                return
            del self._compact_pending[block_hash]
            if obs.ENABLED:
                obs.inc("compact.reconstructed_total")
            node.relay._accept_block(block, pending.origin, pending.hop)

    def _fallback_full(
        self, block_hash: bytes, reason: str, attempt: int = 1
    ) -> None:
        """Give up on reconstruction and request the full block."""
        pending = self._compact_pending.get(block_hash)
        if pending is None:
            return
        node, origin = self.node, pending.origin
        if not pending.fell_back:
            pending.fell_back = True
            if obs.ENABLED:
                obs.inc("compact.fallback_total")
                obs.emit(
                    "compact.fallback",
                    node=node.name,
                    hash=block_hash,
                    reason=reason,
                )
        pending.req_seq += 1
        req = pending.req_seq
        node.send_to(
            origin,
            lambda: origin.compact._serve_full_block(node, block_hash, req),
            msg="getblock",
            size=GETBLOCK_SIZE,
        )
        node.sim.schedule(
            COMPACT_TXN_TIMEOUT * attempt,
            lambda: self._on_compact_timeout(
                block_hash, req, attempt, stage="fullblock"
            ),
        )

    def _serve_full_block(
        self, requester: "Node", block_hash: bytes, req: int
    ) -> None:
        node = self.node
        if not node.alive:
            return
        entry = node.chain.entry(block_hash)
        block = entry.block if entry is not None else None
        node.send_to(
            requester,
            lambda: requester.compact._on_full_block(block_hash, req, block),
            msg="block",
            size=block.serialized_size() if block is not None else 40,
        )

    def _on_full_block(
        self, block_hash: bytes, req: int, block: Block | None
    ) -> None:
        node = self.node
        if not node.alive:
            return
        pending = self._compact_pending.get(block_hash)
        if pending is None or pending.req_seq != req:
            return
        with obs.node_scope(node.name if obs.ENABLED else None):
            if block is None or block.hash != block_hash:
                self._withheld(block_hash, pending, "a full block")
                return
            del self._compact_pending[block_hash]
            node.relay._accept_block(block, pending.origin, pending.hop)

    def _withheld(
        self, block_hash: bytes, pending: _PendingCompact, what: str
    ) -> None:
        """The peer announced a block it cannot back with ``what``."""
        if obs.ENABLED:
            obs.inc("compact.withheld_total")
            obs.emit(
                "compact.withheld",
                node=self.node.name,
                peer=pending.origin.name,
                hash=block_hash,
            )
        self.node.penalize(
            pending.origin,
            POINTS_BAD_COMPACT,
            f"compact announcement not backed by {what}",
        )
        self._give_up_compact(block_hash, resync=False)

    def _on_compact_timeout(
        self, block_hash: bytes, req: int, attempt: int, stage: str
    ) -> None:
        if not self.node.alive:
            return
        pending = self._compact_pending.get(block_hash)
        if pending is None or pending.req_seq != req:
            return  # a reply (or a newer request) won the race
        if attempt < COMPACT_MAX_ATTEMPTS:
            if stage == "blocktxn":
                self._request_block_txns(block_hash, attempt + 1)
            else:
                self._fallback_full(
                    block_hash, reason="timeout-retry", attempt=attempt + 1
                )
        elif stage == "blocktxn":
            self._fallback_full(block_hash, reason="timeout")
        else:
            self._give_up_compact(block_hash, resync=True)

    def _give_up_compact(self, block_hash: bytes, resync: bool) -> None:
        """Abandon a pending reconstruction entirely.

        The hash is un-remembered so a later relay or catch-up sync can
        still deliver the block; with ``resync`` (the lossy-link give-up
        path) a sync with the announcing peer is kicked immediately.
        """
        pending = self._compact_pending.pop(block_hash, None)
        if pending is None:
            return
        node = self.node
        if not node.chain.has_block(block_hash):
            node.relay._seen_blocks.pop(block_hash)
        if resync and pending.origin.alive and pending.origin in node.peers:
            start_sync(node, pending.origin, reason="compact")
