"""The unspent-txout table (paper §3.3).

"Any Bitcoin node that verifies transactions' validity must be able to tell
whether a particular txout has been spent already, and this requires
maintaining a table of all unspent txouts."  The table's size — and the
permanent deadweight caused by unspendable metadata outputs — is the reason
Typecoin embeds metadata in spendable 1-of-2 multisig outputs.  Experiment
E4 measures exactly this, so the set tracks enough metrics to report it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.bitcoin.standard import ScriptType, classify
from repro.bitcoin.transaction import OutPoint, Transaction, TxOut

COINBASE_MATURITY = 100

# The schemas whose classified data are keys or key hashes.
_KEYED = (ScriptType.P2PKH, ScriptType.P2PK, ScriptType.MULTISIG)


@dataclass(frozen=True)
class UTXOEntry:
    """A single unspent output plus the context needed to validate spends."""

    output: TxOut
    height: int
    is_coinbase: bool

    def serialized_size(self) -> int:
        """Approximate in-table footprint: outpoint + entry, in bytes.

        The set keeps its total size incrementally and asks this on every
        add and remove; the script's encoding is built once, on the script.
        """
        return 36 + 8 + 4 + 1 + len(self.output.script_pubkey.serialize())

    def tags(self) -> tuple[bytes, ...]:
        """The bytes the script names, each once: a P2PKH key hash, a P2PK
        key, every multisig key; nothing for any other script.  These are
        the keys of the table's owner index (the script keeps its class).
        """
        classified = classify(self.output.script_pubkey)
        if classified.type in _KEYED:
            return tuple(dict.fromkeys(classified.data))
        return ()


@dataclass
class SpentInfo:
    """Undo record: what an input removed (so reorgs can restore it)."""

    outpoint: OutPoint
    entry: UTXOEntry


@dataclass
class BlockUndo:
    """Everything needed to disconnect one block from the UTXO set."""

    spent: list[SpentInfo] = field(default_factory=list)
    created: list[OutPoint] = field(default_factory=list)


class UTXOSet:
    """The set of unspent transaction outputs, with apply/undo semantics."""

    def __init__(self) -> None:
        self._entries: dict[OutPoint, UTXOEntry] = {}
        # Running total for serialized_size(): maintained on every
        # mutation so the monitors/benchmarks that sample it per block
        # pay O(1), not a full-table walk.
        self._size_bytes = 0
        # Owner index: tag (see UTXOEntry.tags) -> outpoints of the entries
        # naming it.  Kept exact by the four storage primitives below, so
        # a wallet's coin selection visits what its keys are named in, not
        # the whole table.  No bucket is ever left empty.
        self._by_tag: dict[bytes, set[OutPoint]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, outpoint: OutPoint) -> bool:
        return outpoint in self._entries

    def get(self, outpoint: OutPoint) -> UTXOEntry | None:
        return self._entries.get(outpoint)

    def items(self):
        return self._entries.items()

    def entries_naming(self, tags) -> list[tuple[OutPoint, UTXOEntry]]:
        """Every entry whose script names any of ``tags``, each once, in
        no particular order."""
        entries = self._entries
        return [(op, entries[op]) for op in self._outpoints_naming(tags)]

    def _outpoints_naming(self, tags) -> set[OutPoint]:
        return set().union(*(self._by_tag.get(tag, ()) for tag in tags))

    def _index(self, outpoint: OutPoint, entry: UTXOEntry) -> None:
        for tag in entry.tags():
            self._by_tag.setdefault(tag, set()).add(outpoint)

    def _unindex(self, outpoint: OutPoint, entry: UTXOEntry) -> None:
        by_tag = self._by_tag
        for tag in entry.tags():
            bucket = by_tag[tag]
            bucket.remove(outpoint)
            if not bucket:
                del by_tag[tag]

    def add(self, outpoint: OutPoint, entry: UTXOEntry) -> None:
        if outpoint in self._entries:
            raise ValueError(f"duplicate UTXO {outpoint}")
        self._entries[outpoint] = entry
        self._size_bytes += entry.serialized_size()
        self._index(outpoint, entry)

    def remove(self, outpoint: OutPoint) -> UTXOEntry:
        try:
            entry = self._entries.pop(outpoint)
        except KeyError:
            raise KeyError(f"spending unknown or spent txout {outpoint}") from None
        self._size_bytes -= entry.serialized_size()
        self._unindex(outpoint, entry)
        return entry

    def apply_transaction(
        self, tx: Transaction, height: int, undo: BlockUndo | None = None
    ) -> None:
        """Spend a transaction's inputs and create its outputs."""
        if not tx.is_coinbase:
            for txin in tx.vin:
                entry = self.remove(txin.prevout)
                if undo is not None:
                    undo.spent.append(SpentInfo(txin.prevout, entry))
        for index, output in enumerate(tx.vout):
            # Provably unspendable outputs never enter the table (this is the
            # one concession real nodes make to keep the table lean).
            if classify(output.script_pubkey).type is ScriptType.OP_RETURN:
                if obs.ENABLED:
                    obs.inc("utxo.gc_swept_total")
                continue
            outpoint = tx.outpoint(index)
            self.add(outpoint, UTXOEntry(output, height, tx.is_coinbase))
            if undo is not None:
                undo.created.append(outpoint)

    def apply_block_txs(self, txs: list[Transaction], height: int) -> BlockUndo:
        """Apply every transaction of a block, returning the undo record."""
        undo = BlockUndo()
        for tx in txs:
            self.apply_transaction(tx, height, undo)
        return undo

    def undo_block(self, undo: BlockUndo) -> None:
        """Disconnect a block: delete created outputs, restore spent ones."""
        for outpoint in reversed(undo.created):
            # A created output absent from the table means the undo data
            # does not describe this state (corrupt record, wrong block):
            # disconnecting anyway would silently corrupt the set.
            if not self._delete_created(outpoint):
                raise KeyError(
                    f"undo expected created txout {outpoint} in the set"
                )
        for spent in reversed(undo.spent):
            self._restore_spent(spent.outpoint, spent.entry)

    # With add/remove, the two undo primitives are the only four places
    # an entry enters or leaves the table, which is what keeps the owner
    # index exact.

    def _delete_created(self, outpoint: OutPoint) -> bool:
        """Delete a block-created output during undo; False if absent."""
        entry = self._entries.pop(outpoint, None)
        if entry is None:
            return False
        self._size_bytes -= entry.serialized_size()
        self._unindex(outpoint, entry)
        return True

    def _restore_spent(self, outpoint: OutPoint, entry: UTXOEntry) -> None:
        """Re-insert a spent output during undo (key known absent)."""
        self._entries[outpoint] = entry
        self._size_bytes += entry.serialized_size()
        self._index(outpoint, entry)

    def total_value(self) -> int:
        return sum(e.output.value for e in self._entries.values())

    def serialized_size(self) -> int:
        """Total table footprint in bytes (experiment E4's metric), O(1)."""
        return self._size_bytes

    def count_by_type(self) -> dict[ScriptType, int]:
        """How many table entries each script schema accounts for."""
        counts: dict[ScriptType, int] = {}
        for entry in self._entries.values():
            script_type = classify(entry.output.script_pubkey).type
            counts[script_type] = counts.get(script_type, 0) + 1
        return counts

    def snapshot(self) -> dict[OutPoint, UTXOEntry]:
        """A shallow copy of the table (entries are immutable)."""
        return dict(self._entries)
