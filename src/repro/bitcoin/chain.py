"""The blockchain: a block tree resolved to a list by accumulated work.

Paper §1, item 2: "In order for the blockchain to provide a commitment
mechanism, we need it to be a list, not a tree.  Otherwise, a state change
could be reversed by hopping to an alternate branch of the tree."  This
module keeps the whole tree, defines the active chain as the branch with the
most accumulated work, and reorganizes (with full UTXO undo) when a heavier
branch appears — which is exactly the attack surface experiment E1 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.obs.monitor import monitors
from repro.bitcoin.block import Block, build_block
from repro.bitcoin.pow import (
    BLOCK_INTERVAL_TARGET,
    MAX_TARGET,
    REGTEST_TARGET,
    RETARGET_WINDOW,
    bits_to_target,
    block_work,
    next_target,
    target_to_bits,
)
from repro.bitcoin.transaction import COIN, OutPoint, Script, Transaction, TxIn, TxOut
from repro.bitcoin.utxo import BlockUndo, UTXOSet
from repro.bitcoin.validation import (
    MissingInputError,
    ValidationError,
    check_tx_inputs,
    is_final,
    prewarm_script_verdicts,
)

HALVING_INTERVAL = 210_000
INITIAL_SUBSIDY = 50 * COIN
MEDIAN_TIME_SPAN = 11
GENESIS_TIMESTAMP = 1_000_000_000


@dataclass(frozen=True)
class ChainParams:
    """Consensus parameters; the regtest preset makes mining instant.

    Every chain's genesis is stamped :data:`GENESIS_TIMESTAMP`, so two
    chains have the same genesis exactly when their parameters agree.
    """

    max_target: int = MAX_TARGET
    retarget_window: int = RETARGET_WINDOW
    block_interval: int = BLOCK_INTERVAL_TARGET
    require_pow: bool = True

    @staticmethod
    def regtest() -> "ChainParams":
        return ChainParams(
            max_target=REGTEST_TARGET,
            retarget_window=2**31,  # never retarget
            require_pow=True,
        )


def make_genesis(params: ChainParams) -> Block:
    """A deterministic genesis block whose coinbase is unspendable."""
    coinbase = Transaction(
        vin=[TxIn(OutPoint.null(), Script())],
        vout=[TxOut(INITIAL_SUBSIDY, Script())],
    )
    bits = target_to_bits(params.max_target)
    block = build_block(
        prev_hash=b"\x00" * 32,
        txs=[coinbase],
        timestamp=GENESIS_TIMESTAMP,
        bits=bits,
    )
    if params.require_pow:
        nonce = 0
        while not block.header.meets_target():
            nonce += 1
            block = Block(block.header.with_nonce(nonce), block.txs)
    return block


@dataclass
class BlockIndexEntry:
    """Metadata for one block in the tree."""

    block: Block
    height: int
    chain_work: int
    prev: bytes | None
    # Median of this block's and its ten predecessors' timestamps, set
    # once at indexing: an entry's ancestors never change.
    median_time_past: int
    invalid: bool = False


@dataclass
class _ConnectedState:
    """Per-connected-block bookkeeping for disconnects."""

    undo: BlockUndo
    txids: list[bytes] = field(default_factory=list)


class Blockchain:
    """The full node state: block tree, active chain, UTXO set, tx index."""

    def __init__(self, params: ChainParams | None = None):
        self.params = params or ChainParams.regtest()
        self.genesis = make_genesis(self.params)
        genesis_hash = self.genesis.hash
        self._index: dict[bytes, BlockIndexEntry] = {
            genesis_hash: BlockIndexEntry(
                block=self.genesis,
                height=0,
                chain_work=block_work(self.genesis.header.bits),
                prev=None,
                median_time_past=self.genesis.header.timestamp,
            )
        }
        self._active: list[bytes] = [genesis_hash]
        self.utxos = UTXOSet()
        self._connected: dict[bytes, _ConnectedState] = {}
        # txid -> hash of the active-chain block containing it.
        self._tx_index: dict[bytes, bytes] = {}
        # outpoint -> txid of the active-chain transaction that spent it.
        self._spenders: dict[OutPoint, bytes] = {}
        # Optional durable store (repro.store.BlockStore); every connect /
        # disconnect is appended once attached.  Duck-typed so this module
        # never has to import repro.store.
        self.store = None
        # Called as listener(disconnected, connected) after every
        # successful reorg, with lists of BlockIndexEntry: the losing
        # branch tip-first, the winning branch in height order.
        self._reorg_listeners: list = []
        self._connect(self._index[genesis_hash])

    # ------------------------------------------------------------------
    # Persistence / notification hooks
    # ------------------------------------------------------------------

    def attach_store(self, store) -> None:
        """Start mirroring every connect/disconnect into ``store``.

        The store must already be open; its manifest is bound to this
        chain's genesis (a store from a different chain raises).
        """
        store.set_genesis(self.genesis.hash)
        self.store = store

    def add_reorg_listener(self, listener) -> None:
        """Register ``listener(disconnected, connected)`` for successful
        reorgs (both are lists of :class:`BlockIndexEntry`; the losing
        branch arrives tip-first, the winning branch in height order)."""
        self._reorg_listeners.append(listener)

    @classmethod
    def restore(
        cls, recovered, params: ChainParams | None = None
    ) -> "Blockchain":
        """Rebuild a chain from a :class:`repro.store.RecoveredState`.

        Replays the durable transition log without script verification or
        proof-of-work re-grinding — every record already passed full
        validation before it was committed.  Records up to the snapshot's
        offset rebuild the block index only; the snapshot supplies the
        UTXO set (and the undo log supplies per-block undo data for the
        blocks beneath it); records past the snapshot replay forward
        through the normal UTXO apply path.  With no usable snapshot the
        whole log replays from genesis.

        The returned chain has **no store attached** — appends during
        replay would duplicate the log.  Call :meth:`attach_store` after.
        """
        chain = cls(params)
        if (
            recovered.genesis is not None
            and recovered.genesis != chain.genesis.hash
        ):
            raise ValidationError(
                "store belongs to a different chain (genesis mismatch)"
            )
        snapshot = recovered.snapshot
        boundary = recovered.snapshot_offset if snapshot is not None else 0
        replayed = 0
        for record in recovered.records:
            if snapshot is not None and record.offset < boundary:
                chain._replay_index_only(record)
            else:
                if snapshot is not None:
                    chain._install_snapshot(snapshot, recovered.undo_by_hash)
                    snapshot = None  # installed exactly once
                chain._replay_forward(record)
                replayed += 1
        if snapshot is not None:
            # Every surviving record predates the snapshot (or there were
            # none): install it now to finish.
            chain._install_snapshot(snapshot, recovered.undo_by_hash)
        if obs.ENABLED:
            obs.inc("store.recovered_blocks_total", replayed)
        return chain

    def _replay_index_only(self, record) -> None:
        """Phase-1 replay: maintain the block tree and active list only
        (the snapshot will supply the UTXO set these records produced)."""
        if record.kind == 2:  # disconnect
            popped = self._active.pop()
            assert popped == record.block_hash, "log/active-chain divergence"
            return
        self._index_block(record.block)
        self._active.append(record.block_hash)

    def _install_snapshot(self, snapshot, undo_by_hash: dict) -> None:
        """Adopt a snapshot's UTXO set and backfill per-block state for
        the active blocks beneath it (undo from the durable undo log)."""
        if self.tip.block.hash != snapshot.tip or self.height != snapshot.height:
            raise ValidationError(
                "snapshot tip does not match replayed index "
                f"(height {self.height} vs {snapshot.height})"
            )
        self.utxos = snapshot.to_utxo_set()
        for block_hash in self._active[1:]:
            undo = undo_by_hash.get(block_hash)
            if undo is None:
                raise ValidationError(
                    "undo record missing for committed block "
                    f"{block_hash.hex()}"
                )
            self._mark_connected(self._index[block_hash].block, undo)

    def _replay_forward(self, record) -> None:
        """Phase-2 replay: re-apply one logged transition to the UTXO set
        and indexes (undo data is recomputed by the apply itself)."""
        if record.kind == 2:  # disconnect
            assert self._active[-1] == record.block_hash, (
                "log/active-chain divergence"
            )
            self._disconnect_tip()
            return
        block = record.block
        entry = self._index_block(block)
        undo = self.utxos.apply_block_txs(list(block.txs), entry.height)
        self._mark_connected(block, undo)
        self._active.append(record.block_hash)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def tip(self) -> BlockIndexEntry:
        return self._index[self._active[-1]]

    @property
    def height(self) -> int:
        return len(self._active) - 1

    def block_at(self, height: int) -> Block:
        return self._index[self._active[height]].block

    def entry(self, block_hash: bytes) -> BlockIndexEntry | None:
        return self._index.get(block_hash)

    def has_block(self, block_hash: bytes) -> bool:
        return block_hash in self._index

    def in_active_chain(self, block_hash: bytes) -> bool:
        entry = self._index.get(block_hash)
        return (
            entry is not None
            and entry.height < len(self._active)
            and self._active[entry.height] == block_hash
        )

    def get_transaction(self, txid: bytes) -> tuple[Transaction, int] | None:
        """Find a confirmed transaction; returns (tx, height) or None."""
        block_hash = self._tx_index.get(txid)
        if block_hash is None:
            return None
        entry = self._index[block_hash]
        for tx in entry.block.txs:
            if tx.txid == txid:
                return tx, entry.height
        return None  # pragma: no cover - index is kept consistent

    def confirmations(self, txid: bytes) -> int:
        """How many blocks deep a transaction is (0 = unconfirmed)."""
        found = self.get_transaction(txid)
        if found is None:
            return 0
        _, height = found
        return self.height - height + 1

    def is_spent(self, outpoint: OutPoint) -> bool:
        """Has this outpoint been consumed on the active chain?

        Paper §5: "To show that a txout is spent, one can point to an earlier
        transaction that spent it."  This is the oracle behind the
        ``spent(txid.n)`` condition.
        """
        return outpoint in self._spenders

    def spender_of(self, outpoint: OutPoint) -> bytes | None:
        """The txid that spent ``outpoint`` on the active chain, if any."""
        return self._spenders.get(outpoint)

    def median_time_past(self, block_hash: bytes | None = None) -> int:
        """Median of the last 11 block timestamps (the consensus clock)."""
        entry = self._index[block_hash] if block_hash else self.tip
        return entry.median_time_past

    def required_bits(self, prev_hash: bytes) -> int:
        """The compact target the block after ``prev_hash`` must meet."""
        prev = self._index[prev_hash]
        next_height = prev.height + 1
        window = self.params.retarget_window
        if next_height % window != 0:
            return prev.block.header.bits
        # Walk back to the first block of the closing period.
        first = prev
        for _ in range(window - 1):
            assert first.prev is not None
            first = self._index[first.prev]
        new_target = next_target(
            bits_to_target(prev.block.header.bits),
            first.block.header.timestamp,
            prev.block.header.timestamp,
            max_target=self.params.max_target,
            window=window,
            interval=self.params.block_interval,
        )
        return target_to_bits(new_target)

    # ------------------------------------------------------------------
    # Sync support (headers-first catch-up, see repro.bitcoin.sync)
    # ------------------------------------------------------------------

    def locator(self) -> list[bytes]:
        """Block-locator hashes: dense near the tip, exponentially sparse
        toward genesis (genesis always included).

        A peer scans the list for the first hash on *its* active chain —
        the common ancestor survives any reorg depth with O(log height)
        hashes exchanged.
        """
        hashes: list[bytes] = []
        step = 1
        height = self.height
        while height > 0:
            hashes.append(self._active[height])
            if len(hashes) >= 10:
                step *= 2
            height -= step
        hashes.append(self._active[0])
        return hashes

    def hashes_after(self, locator: list[bytes], limit: int = 2000) -> list[bytes]:
        """Active-chain hashes after the first locator hash we recognize.

        The serving side of a getheaders round: the requester learns, in
        order, which blocks it is missing.  Unknown locators degrade to
        "everything after genesis" (the locator always carries genesis).
        """
        start = 0
        for block_hash in locator:
            entry = self._index.get(block_hash)
            if entry is not None and self.in_active_chain(block_hash):
                start = entry.height
                break
        return self._active[start + 1 : start + 1 + limit]

    def export_active(self) -> list[Block]:
        """The active chain's blocks after genesis, in height order.

        This is the "on-disk" state a crashed node reloads: side branches
        and all in-memory indexes are rebuilt (or lost) on restart, exactly
        like a pruned node replaying its block files.
        """
        return [self._index[h].block for h in self._active[1:]]

    # ------------------------------------------------------------------
    # Block acceptance
    # ------------------------------------------------------------------

    def add_block(self, block: Block) -> bool:
        """Validate and store a block; reorganize if its branch has most work.

        Returns True if the block is now on the active chain.
        Raises :class:`ValidationError` for malformed or rule-breaking blocks.
        """
        block_hash = block.hash
        if block_hash in self._index:
            return self.in_active_chain(block_hash)
        prev = self._index.get(block.header.prev_hash)
        if prev is None:
            raise ValidationError("orphan block: unknown parent")
        if prev.invalid:
            raise ValidationError("parent block is invalid")

        block.validate_structure()
        expected_bits = self.required_bits(block.header.prev_hash)
        if block.header.bits != expected_bits:
            raise ValidationError("incorrect difficulty bits")
        if self.params.require_pow and not block.header.meets_target():
            raise ValidationError("insufficient proof of work")
        if block.header.timestamp <= self.median_time_past(block.header.prev_hash):
            raise ValidationError("timestamp not after median time past")

        entry = self._index_block(block)
        if entry.chain_work > self.tip.chain_work:
            self._reorganize_to(entry)
            if self.store is not None and self.store.should_snapshot():
                # Snapshot only at a settled tip, never mid-reorg.
                self.store.write_snapshot(
                    self.utxos, self.height, self.tip.block.hash
                )
        if obs.ENABLED:
            # Tip-work monotonicity is checked here — at the *end* of
            # add_block, never per-connect — because mid-reorg the tip
            # legitimately dips below the old branch's work.
            monitors().check_tip_work(self)
        return self.in_active_chain(block_hash)

    def _reorganize_to(self, new_tip: BlockIndexEntry) -> None:
        """Switch the active chain to end at ``new_tip``.

        Finds the fork point, disconnects the old branch, and connects the
        new branch; if a new-branch block fails contextual validation the
        whole reorg is rolled back and that block is marked invalid.
        """
        # Collect the new branch back to a block on the active chain.
        branch: list[BlockIndexEntry] = []
        cursor: BlockIndexEntry | None = new_tip
        while cursor is not None and not self.in_active_chain(cursor.block.hash):
            branch.append(cursor)
            cursor = self._index.get(cursor.prev) if cursor.prev else None
        assert cursor is not None, "branches always join at genesis"
        fork_height = cursor.height
        branch.reverse()

        disconnected: list[BlockIndexEntry] = []
        while self.height > fork_height:
            disconnected.append(self._disconnect_tip())
        if disconnected and obs.ENABLED:
            # A true reorg (not a plain tip extension): the active chain
            # lost blocks before adopting the heavier branch.
            obs.inc("chain.reorg_total")
            obs.emit(
                "chain.reorg",
                depth=len(disconnected),
                fork_height=fork_height,
            )

        connected: list[BlockIndexEntry] = []
        try:
            for entry in branch:
                self._connect(entry)
                connected.append(entry)
        except ValidationError:
            # Roll back: disconnect what we connected, restore the old chain.
            bad = branch[len(connected)]
            bad.invalid = True
            for _ in connected:
                self._disconnect_tip()
            for entry in reversed(disconnected):
                self._connect(entry)
            raise
        if disconnected:
            for listener in self._reorg_listeners:
                listener(disconnected, connected)

    def _connect(self, entry: BlockIndexEntry) -> None:
        """Attach a block to the active tip, updating UTXOs and indexes."""
        block = entry.block
        height = entry.height
        if height > 0:
            txs = block.txs[1:]
            # Speed only: the workers check the tail of the cold
            # transactions while this loop checks the head, and their
            # verdicts are recorded before the loop reaches the tail.
            split, collect = prewarm_script_verdicts(txs, self.utxos)
            # Each transaction is checked as Mempool._accept checks it:
            # finality, no outpoint already claimed, then check_tx_inputs.
            # Rule 3 at block scope: check_tx_inputs reads the pre-block
            # table, so a second spender of one outpoint must be caught
            # here, before apply_block_txs mutates anything.
            spent_in_block: set[OutPoint] = set()

            def fee(tx: Transaction) -> int:
                if not is_final(tx, height, block.header.timestamp):
                    raise ValidationError("non-final transaction in block")
                for txin in tx.vin:
                    if txin.prevout in spent_in_block:
                        raise MissingInputError(
                            f"missing or spent input {txin.prevout}"
                        )
                    spent_in_block.add(txin.prevout)
                return check_tx_inputs(tx, self.utxos, height).fee

            try:
                fees = sum(map(fee, txs[:split]))
            finally:
                collect()
            fees += sum(map(fee, txs[split:]))
            coinbase_value = block.txs[0].total_output_value()
            if coinbase_value > block_subsidy(height) + fees:
                raise ValidationError("coinbase pays more than subsidy plus fees")
        undo = self.utxos.apply_block_txs(list(block.txs), height)
        self._mark_connected(block, undo)
        if height > 0:
            self._active.append(block.hash)
            if self.store is not None:
                self.store.append_connect(block, height, undo)
        # height == 0 is genesis, already in _active at construction
        # (and implied by the store manifest, so it is never logged).
        if obs.ENABLED:
            obs.inc("chain.blocks_connected_total")
            obs.gauge_set("utxo.set_size", len(self.utxos))
            obs.emit(
                "block.connected",
                hash=block.hash,
                height=height,
                txs=len(block.txs),
            )
            monitors().check_supply(self)

    def _index_block(self, block: Block) -> BlockIndexEntry:
        """The block's entry in the tree, created under its parent if new."""
        block_hash = block.hash
        entry = self._index.get(block_hash)
        if entry is None:
            prev = self._index[block.header.prev_hash]
            times = [block.header.timestamp]
            ancestor: BlockIndexEntry | None = prev
            while ancestor is not None and len(times) < MEDIAN_TIME_SPAN:
                times.append(ancestor.block.header.timestamp)
                ancestor = self._index.get(ancestor.prev)
            times.sort()
            entry = BlockIndexEntry(
                block=block,
                height=prev.height + 1,
                chain_work=prev.chain_work + block_work(block.header.bits),
                prev=block.header.prev_hash,
                median_time_past=times[len(times) // 2],
            )
            self._index[block_hash] = entry
        return entry

    def _mark_connected(self, block: Block, undo: BlockUndo) -> None:
        """Index a block whose transactions the table now reflects: where
        each confirmed, what each spent, and the undo data to take it off."""
        block_hash = block.hash
        state = _ConnectedState(undo=undo)
        for tx in block.txs:
            self._tx_index[tx.txid] = block_hash
            state.txids.append(tx.txid)
            if not tx.is_coinbase:
                for txin in tx.vin:
                    self._spenders[txin.prevout] = tx.txid
        self._connected[block_hash] = state

    def _disconnect_tip(self) -> BlockIndexEntry:
        """Detach the tip block, restoring UTXOs and indexes."""
        tip_hash = self._active.pop()
        entry = self._index[tip_hash]
        state = self._connected.pop(tip_hash)
        self.utxos.undo_block(state.undo)
        if self.store is not None:
            self.store.append_disconnect(tip_hash, entry.height)
        for txid in state.txids:
            self._tx_index.pop(txid, None)
        for tx in entry.block.txs:
            if not tx.is_coinbase:
                for txin in tx.vin:
                    self._spenders.pop(txin.prevout, None)
        if obs.ENABLED:
            obs.inc("chain.blocks_disconnected_total")
            obs.gauge_set("utxo.set_size", len(self.utxos))
            obs.emit(
                "block.disconnected", hash=tip_hash, height=entry.height
            )
            monitors().check_supply(self)
        return entry


def block_subsidy(height: int) -> int:
    """The new-coin reward at a given height (halves every 210k blocks)."""
    halvings = height // HALVING_INTERVAL
    if halvings >= 64:
        return 0
    return INITIAL_SUBSIDY >> halvings
