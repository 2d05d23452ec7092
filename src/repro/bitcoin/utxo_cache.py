"""A dirty-entry UTXO cache layered over a base set (Bitcoin Core dbcache).

Bitcoin Core's ``CCoinsViewCache`` observation: most outputs die young.
An output created and spent within one cache lifetime never needs to
reach the backing view at all — the two events *annihilate*.  This module
reproduces that hierarchy for the reproduction's pipeline: a
:class:`UTXOCache` holds an overlay of dirty entries over a base
:class:`~repro.bitcoin.utxo.UTXOSet` (the set the durable store
snapshots), absorbs every add/remove in dict operations, and writes the
surviving net effect back in one :meth:`flush`.

Overlay states per outpoint:

* **absent** — the base's view stands;
* **live + FRESH** — created in-cache, base has no version: flush adds it,
  an in-cache spend annihilates it without touching the base;
* **live, not FRESH** — a base-resident outpoint re-created after an
  in-cache spend (reorg replays do this): flush replaces the base entry;
* **tombstone** (``None``) — a base-resident entry spent in-cache: flush
  removes it from the base.

Strict undo semantics are preserved: the cache inherits every apply/undo
algorithm from :class:`UTXOSet` and only overrides the storage
primitives, so spending a missing output or undoing a foreign block
raises exactly as the plain set does.  Flushing is safe at any block
boundary (it never changes the merged view); the chain flushes before
every durable snapshot so the snapshot sees the full state, and a size
trigger ages the overlay out when it outgrows ``max_entries`` — the
OP_RETURN sweep in ``apply_transaction`` (the existing GC) keeps
unspendable outputs from ever entering either layer.

See ``docs/performance.md`` ("The block pipeline") for the flush rules.
"""

from __future__ import annotations

from repro import obs
from repro.bitcoin.standard import ScriptType, classify
from repro.bitcoin.transaction import OutPoint, Transaction
from repro.bitcoin.utxo import UTXOEntry, UTXOSet

# Overlay miss sentinel: distinguishes "no overlay opinion" from a
# tombstone (None means spent-in-cache).
_MISS = object()


class UTXOCache(UTXOSet):
    """A write-back overlay presenting the full :class:`UTXOSet` interface.

    Drop-in for ``Blockchain.utxos``: lookups hit the overlay dict first,
    mutations never touch the base until :meth:`flush`.
    """

    def __init__(self, base: UTXOSet, max_entries: int = 100_000):
        # The inherited entry dict stays empty (state is below); the
        # inherited owner index covers the overlay's live entries.
        super().__init__()
        self.base = base
        self.max_entries = max_entries
        self._overlay: dict[OutPoint, UTXOEntry | None] = {}
        self._fresh: set[OutPoint] = set()
        # Net deltas versus the base, so len() and serialized_size() stay
        # O(1) without walking either layer.
        self._len_delta = 0
        self._size_delta = 0

    # ------------------------------------------------------------------
    # Reads: overlay first, base second
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.base) + self._len_delta

    def __contains__(self, outpoint: OutPoint) -> bool:
        entry = self._overlay.get(outpoint, _MISS)
        if entry is not _MISS:
            return entry is not None
        return outpoint in self.base

    def get(self, outpoint: OutPoint) -> UTXOEntry | None:
        entry = self._overlay.get(outpoint, _MISS)
        if entry is not _MISS:
            if obs.ENABLED:
                obs.inc("utxocache.hits_total")
            return entry  # a tombstone reads as spent (None)
        if obs.ENABLED:
            obs.inc("utxocache.misses_total")
        return self.base.get(outpoint)

    def items(self):
        """The merged view: base entries not shadowed, then overlay adds."""
        overlay = self._overlay
        for outpoint, entry in self.base.items():
            if outpoint not in overlay:
                yield outpoint, entry
        for outpoint, entry in overlay.items():
            if entry is not None:
                yield outpoint, entry

    def entries_naming(self, tags) -> list[tuple[OutPoint, UTXOEntry]]:
        """The owner query over the merged view: the base's answer minus
        what the overlay shadows, plus the overlay's own live entries."""
        overlay = self._overlay
        found = [
            item for item in self.base.entries_naming(tags)
            if item[0] not in overlay
        ]
        found.extend((op, overlay[op]) for op in self._outpoints_naming(tags))
        return found

    def overlay_len(self) -> int:
        """How many outpoints the overlay currently shadows."""
        return len(self._overlay)

    # ------------------------------------------------------------------
    # Writes: absorbed by the overlay
    # ------------------------------------------------------------------

    def add(self, outpoint: OutPoint, entry: UTXOEntry) -> None:
        current = self._overlay.get(outpoint, _MISS)
        if current is not _MISS:
            if current is not None:
                raise ValueError(f"duplicate UTXO {outpoint}")
            # Re-creating over a tombstone: the base still holds the old
            # (spent) version, so the entry is dirty but NOT fresh —
            # flush must replace, not blindly add.
            self._overlay[outpoint] = entry
        else:
            if outpoint in self.base:
                raise ValueError(f"duplicate UTXO {outpoint}")
            self._overlay[outpoint] = entry
            self._fresh.add(outpoint)
        self._index(outpoint, entry)
        self._len_delta += 1
        self._size_delta += entry.serialized_size()

    def remove(self, outpoint: OutPoint) -> UTXOEntry:
        current = self._overlay.get(outpoint, _MISS)
        if current is not _MISS:
            if current is None:
                raise KeyError(
                    f"spending unknown or spent txout {outpoint}"
                )
            self._unindex(outpoint, current)
            if outpoint in self._fresh:
                # Created and spent inside the cache: the pair annihilates
                # without the base (or the store behind it) ever seeing it.
                del self._overlay[outpoint]
                self._fresh.discard(outpoint)
                if obs.ENABLED:
                    obs.inc("utxocache.annihilated_total")
            else:
                self._overlay[outpoint] = None
        else:
            entry = self.base.get(outpoint)
            if entry is None:
                raise KeyError(
                    f"spending unknown or spent txout {outpoint}"
                )
            current = entry
            self._overlay[outpoint] = None
        self._len_delta -= 1
        self._size_delta -= current.serialized_size()
        return current

    # Undo primitives (inherited _undo_block_inner drives these).

    def _delete_created(self, outpoint: OutPoint) -> bool:
        current = self._overlay.get(outpoint, _MISS)
        if current is _MISS:
            entry = self.base.get(outpoint)
            if entry is None:
                return False
            current = entry
            self._overlay[outpoint] = None
        elif current is None:
            return False
        else:
            self._unindex(outpoint, current)
            if outpoint in self._fresh:
                del self._overlay[outpoint]
                self._fresh.discard(outpoint)
                if obs.ENABLED:
                    obs.inc("utxocache.annihilated_total")
            else:
                self._overlay[outpoint] = None
        self._len_delta -= 1
        self._size_delta -= current.serialized_size()
        return True

    def _restore_spent(self, outpoint: OutPoint, entry: UTXOEntry) -> None:
        current = self._overlay.get(outpoint, _MISS)
        if current is None:
            # Undoing an in-cache spend of a base-resident entry: clearing
            # the tombstone makes the base version visible again.
            del self._overlay[outpoint]
        else:
            # The spend annihilated a fresh entry, or happened before this
            # cache's lifetime (pre-attach or flushed): re-create it.
            self._overlay[outpoint] = entry
            self._index(outpoint, entry)
            if outpoint not in self.base:
                self._fresh.add(outpoint)
        self._len_delta += 1
        self._size_delta += entry.serialized_size()

    def apply_block_txs(self, txs: list[Transaction], height: int):
        undo = super().apply_block_txs(txs, height)
        if len(self._overlay) > self.max_entries:
            # Age the overlay out once it outgrows its budget (the
            # dbcache-style size trigger); safe mid-chain because flushing
            # never changes the merged view.
            self.flush(reason="size")
        elif obs.ENABLED:
            obs.gauge_set("utxocache.overlay_size", len(self._overlay))
        return undo

    # ------------------------------------------------------------------
    # Write-back
    # ------------------------------------------------------------------

    def flush(self, reason: str = "manual") -> int:
        """Write every dirty entry back to the base set; returns how many.

        Tombstones remove their base entries, FRESH entries are added,
        dirty non-fresh entries replace what the base holds.  The merged
        view is unchanged, so a flush is legal at any block boundary; the
        chain calls it before durable snapshots and on recovery.
        """
        written = 0
        if obs.ENABLED and self._overlay:
            with obs.trace_span(
                "utxocache.flush", entries=len(self._overlay), reason=reason
            ):
                written = self._flush_inner()
        else:
            written = self._flush_inner()
        if obs.ENABLED:
            obs.inc("utxocache.flushes_total")
            obs.inc("utxocache.flushed_entries_total", written)
            obs.gauge_set("utxocache.overlay_size", 0)
        return written

    def _flush_inner(self) -> int:
        base = self.base
        written = 0
        for outpoint, entry in self._overlay.items():
            if entry is None:
                base.remove(outpoint)
            elif outpoint in self._fresh:
                base.add(outpoint, entry)
            else:
                base.remove(outpoint)
                base.add(outpoint, entry)
            written += 1
        self._overlay.clear()
        self._fresh.clear()
        self._by_tag.clear()
        self._len_delta = 0
        self._size_delta = 0
        return written

    # ------------------------------------------------------------------
    # Aggregates over the merged view
    # ------------------------------------------------------------------

    def total_value(self) -> int:
        return sum(entry.output.value for _, entry in self.items())

    def serialized_size(self) -> int:
        return self.base.serialized_size() + self._size_delta

    def count_by_type(self) -> dict[ScriptType, int]:
        counts: dict[ScriptType, int] = {}
        for _, entry in self.items():
            script_type = classify(entry.output.script_pubkey).type
            counts[script_type] = counts.get(script_type, 0) + 1
        return counts

    def snapshot(self) -> dict[OutPoint, UTXOEntry]:
        merged = self.base.snapshot()
        for outpoint, entry in self._overlay.items():
            if entry is None:
                merged.pop(outpoint, None)
            else:
                merged[outpoint] = entry
        return merged
