"""The memory pool: relay policy and pending transactions (paper §3.3).

"A very small number of script schemas are deemed to be *standard*, and most
Bitcoin nodes will not forward transactions that use non-standard scripts.
Thus, while non-standard scripts are legal when they appear in blocks,
participants cannot get non-standard scripts into a block unless they
control a miner."  The mempool is where that policy lives: consensus
validity is necessary but not sufficient for relay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.standard import (
    DUST_THRESHOLD,
    ScriptType,
    classify,
)
from repro.bitcoin.transaction import OutPoint, Transaction
from repro.bitcoin.validation import (
    MissingInputError,
    ValidationError,
    check_tx_inputs,
    is_final,
)

MIN_FEE_RATE = 1  # satoshis per byte


class MempoolError(Exception):
    """A transaction was refused by mempool policy or validity checks."""


class MempoolValidationError(MempoolError):
    """Refused because the transaction is *consensus-invalid* (bad script,
    missing input, value overflow) — not merely against relay policy.

    Peers distinguish the two when scoring misbehavior: an honest node can
    innocently relay a policy-refused or stale transaction, but it never
    relays one that fails consensus validation, so only this subclass
    carries misbehavior points (see ``Node.submit_transaction``).
    """


class MempoolMissingInputError(MempoolValidationError):
    """Consensus-invalid only because an input is missing or spent, which
    a double-spend race produces innocently: it scores a token amount."""


@dataclass
class MempoolEntry:
    tx: Transaction
    fee: int
    size: int

    @property
    def fee_rate(self) -> float:
        return self.fee / self.size


class Mempool:
    """Pending transactions awaiting inclusion in a block."""

    def __init__(self, chain: Blockchain):
        self.chain = chain
        # Cleared only to stand in for a miner that mines what it is
        # handed (paper §3.3's miner-assisted submission).
        self.require_standard = True
        self._entries: dict[bytes, MempoolEntry] = {}
        self._spent: dict[OutPoint, bytes] = {}  # outpoint -> spending txid
        chain.add_reorg_listener(self._on_reorg)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._entries

    def spent_outpoints(self) -> list[OutPoint]:
        """Every outpoint some pooled transaction spends.

        Chained unconfirmed spends are unsupported (see :meth:`_accept`),
        so each of these must still be unspent in ``chain.utxos`` — the
        disjointness invariant :mod:`repro.obs.monitor` samples.
        """
        return list(self._spent)

    def transactions(self) -> list[MempoolEntry]:
        """Entries ordered by descending fee rate (miner's preference)."""
        return sorted(
            self._entries.values(), key=lambda e: e.fee_rate, reverse=True
        )

    def accept(self, tx: Transaction) -> MempoolEntry:
        """Validate ``tx`` against the chain tip + pool and admit it.

        Raises :class:`MempoolError` with a reason when refused.
        """
        if not obs.ENABLED:
            return self._accept(tx)
        try:
            entry = self._accept(tx)
        except MempoolError as exc:
            obs.inc("mempool.rejected_total")
            obs.emit("tx.rejected", txid=tx.txid, reason=str(exc))
            raise
        obs.inc("mempool.accepted_total")
        obs.gauge_set("mempool.size", len(self._entries))
        obs.emit("tx.accepted", txid=tx.txid, fee=entry.fee, size=entry.size)
        return entry

    def _accept(self, tx: Transaction) -> MempoolEntry:
        txid = tx.txid
        if txid in self._entries:
            raise MempoolError("transaction already in mempool")
        if tx.is_coinbase:
            raise MempoolError("coinbase transactions cannot be relayed")
        if self.chain.get_transaction(txid) is not None:
            raise MempoolError("transaction already confirmed")

        for txin in tx.vin:
            if txin.prevout in self._spent:
                raise MempoolError(
                    f"input {txin.prevout} double-spends a mempool transaction"
                )
            # Inputs may come from the chain; spending other mempool outputs
            # (chained unconfirmed transactions) is deliberately not
            # supported: Typecoin's latency story (§3.2) assumes each
            # transaction confirms independently.

        if self.require_standard:
            self._check_standard(tx)

        if not is_final(
            tx, self.chain.height + 1, self.chain.median_time_past()
        ):
            raise MempoolError("transaction is not final (locktime)")

        # Full input validation also records the txid in the process-wide
        # signature cache (repro.bitcoin.sigcache): when a block containing
        # this transaction is connected later, its scripts are not run again.
        try:
            validity = check_tx_inputs(tx, self.chain.utxos, self.chain.height + 1)
        except MissingInputError as exc:
            raise MempoolMissingInputError(str(exc)) from exc
        except ValidationError as exc:
            raise MempoolValidationError(str(exc)) from exc

        size = len(tx.serialize())
        if validity.fee < MIN_FEE_RATE * size:
            raise MempoolError(
                f"fee {validity.fee} below minimum rate for {size} bytes"
            )

        entry = MempoolEntry(tx=tx, fee=validity.fee, size=size)
        self._entries[txid] = entry
        for txin in tx.vin:
            self._spent[txin.prevout] = txid
        return entry

    def _check_standard(self, tx: Transaction) -> None:
        for index, out in enumerate(tx.vout):
            classified = classify(out.script_pubkey)
            if classified.type is ScriptType.NONSTANDARD:
                raise MempoolError(f"output {index} uses a non-standard script")
            if (
                classified.type is not ScriptType.OP_RETURN
                and out.value < DUST_THRESHOLD
            ):
                raise MempoolError(f"output {index} is dust ({out.value} sat)")

    def clear(self) -> int:
        """Drop every entry (a crash loses the mempool); returns the count."""
        dropped = len(self._entries)
        self._entries.clear()
        self._spent.clear()
        if obs.ENABLED:
            obs.gauge_set("mempool.size", 0)
        return dropped

    def remove(self, txid: bytes) -> None:
        entry = self._entries.pop(txid, None)
        if entry is None:
            return
        for txin in entry.tx.vin:
            self._spent.pop(txin.prevout, None)

    def remove_confirmed(self, txs: list[Transaction]) -> None:
        """Drop transactions (and conflicts) once a block confirms them."""
        for tx in txs:
            self.remove(tx.txid)
            # Also evict anything that conflicts with a confirmed spend.
            for txin in tx.vin:
                conflicting = self._spent.get(txin.prevout)
                if conflicting is not None:
                    self.remove(conflicting)

    def _on_reorg(self, disconnected, connected) -> int:
        """Re-inject the losing branch's transactions after a reorg.

        Without this a reorg silently *loses* transactions: they leave the
        mempool when their block confirms, and disconnecting that block
        puts them nowhere.  Each disconnected-block transaction not
        re-confirmed on the winning branch goes back through normal
        acceptance (which re-checks inputs against the post-reorg UTXO
        set — conflicted or no-longer-mature spends simply stay out).
        Returns the number re-injected.
        """
        winning = {
            tx.txid for entry in connected for tx in entry.block.txs
        }
        reinjected = 0
        # ``disconnected`` arrives tip-first; re-inject oldest-first so
        # earlier transactions (whose outputs later ones may spend once
        # re-mined) keep their relative order in fee-rate ties.
        for entry in reversed(disconnected):
            for tx in entry.block.txs:
                if tx.is_coinbase or tx.txid in winning:
                    continue
                try:
                    self.accept(tx)
                except MempoolError:
                    continue  # conflicted, immature, or already present
                reinjected += 1
        if obs.ENABLED:
            obs.inc("mempool.reinjected_total", reinjected)
            obs.emit(
                "mempool.reinjected",
                count=reinjected,
                depth=len(disconnected),
            )
        return reinjected

    def revalidate(self) -> list[Transaction]:
        """Re-check every entry after a reorg; returns evicted transactions.

        Inputs present, maturity and value: a script verdict is a function
        of the spending transaction and the scripts it spends, the txid that
        admission verified pins both, and ``check_tx_inputs`` skips scripts
        for a txid the signature cache still holds.
        """
        evicted = []
        for txid in list(self._entries):
            entry = self._entries[txid]
            try:
                check_tx_inputs(entry.tx, self.chain.utxos, self.chain.height + 1)
            except ValidationError:
                self.remove(txid)
                evicted.append(entry.tx)
        if obs.ENABLED:
            if evicted:
                obs.inc("mempool.evicted_total", len(evicted))
            obs.gauge_set("mempool.size", len(self._entries))
        return evicted
