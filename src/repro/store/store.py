"""The durable block store: logs + snapshots + manifest, and recovery.

Paper §3.3 assumes nodes that "maintain a table of all unspent txouts"
across restarts without re-trusting peers.  :class:`BlockStore` is that
disk.  One directory holds:

* ``blocks.log`` — append-only connect/disconnect records (CRC framed,
  see :mod:`repro.store.framing`), the authoritative history of every
  active-chain transition in commit order;
* ``undo.log`` — one :class:`~repro.bitcoin.utxo.BlockUndo` per
  connected block, so recovery can rewind below a snapshot without
  re-deriving spends;
* ``utxo-<height>.snap`` — periodic full UTXO snapshots, written
  atomically (temp file + fsync + rename);
* ``MANIFEST.json`` — ties them together: genesis hash, the latest
  snapshot, and the log offsets that snapshot is consistent with.

Write path
----------

Appends are flushed to the OS on every record, so a *process* crash
loses at most the record being written (the torn tail recovery
truncates).  ``fsync_appends=True`` additionally fsyncs each append for
power-loss durability; snapshots and the manifest are always fsynced.

Recovery
--------

:meth:`recover` scans both logs (truncating torn/corrupt tails), loads
the newest usable snapshot, and returns a :class:`RecoveredState` that
:meth:`repro.bitcoin.chain.Blockchain.restore` replays — pre-snapshot
records rebuild the index only, the snapshot supplies the UTXO table,
and post-snapshot records replay forward (undo records, or freshly
recomputed undo, drive any disconnects).  No script re-verification, no
proof-of-work grinding, no peer traffic: committed blocks come back from
disk byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.bitcoin.block import Block
from repro.bitcoin.utxo import BlockUndo, UTXOSet
from repro.store import codec, framing
from repro.store.snapshot import (
    SnapshotData,
    SnapshotError,
    read_snapshot_file,
    write_snapshot_file,
)

BLOCK_LOG_MAGIC = b"RPRBLKL1"
UNDO_LOG_MAGIC = b"RPRUNDO1"
MANIFEST_VERSION = 1

BLOCK_LOG_NAME = "blocks.log"
UNDO_LOG_NAME = "undo.log"
MANIFEST_NAME = "MANIFEST.json"


class StoreError(Exception):
    """The store is unusable: inconsistent manifest, undecodable state."""


@dataclass(frozen=True)
class LogRecord:
    """One net block-log record, already decoded."""

    kind: int  # codec.RECORD_CONNECT or codec.RECORD_DISCONNECT
    height: int
    offset: int  # byte offset of the record start in blocks.log
    block_hash: bytes
    block: Block | None  # present for connect records


@dataclass
class RecoveredState:
    """Everything :meth:`Blockchain.restore` needs to rebuild a node."""

    records: list[LogRecord] = field(default_factory=list)
    undo_by_hash: dict[bytes, BlockUndo] = field(default_factory=dict)
    snapshot: SnapshotData | None = None
    snapshot_offset: int = 0  # blocks.log offset the snapshot is valid at
    genesis: bytes | None = None
    blocks_truncated: int = 0
    undo_truncated: int = 0
    crc_failures: int = 0


class BlockStore:
    """Durable persistence for one node's chain (see module docstring).

    ``snapshot_interval=N`` writes a UTXO snapshot every N block
    connects (0 disables automatic snapshots; :meth:`write_snapshot`
    can still be called by hand).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        snapshot_interval: int = 0,
        fsync_appends: bool = False,
    ):
        self.root = Path(root)
        self.snapshot_interval = snapshot_interval
        self.fsync_appends = fsync_appends
        self._block_log = None
        self._undo_log = None
        self._manifest: dict = {}
        self._scan_blocks: framing.ScanResult | None = None
        self._scan_undo: framing.ScanResult | None = None
        self._connects_since_snapshot = 0
        self._opened = False

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def block_log_path(self) -> Path:
        return self.root / BLOCK_LOG_NAME

    @property
    def undo_log_path(self) -> Path:
        return self.root / UNDO_LOG_NAME

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def snapshot_path(self, height: int) -> Path:
        return self.root / f"utxo-{height:08d}.snap"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self) -> "BlockStore":
        """Scan the directory, truncate torn tails, ready the appenders."""
        if self._opened:
            return self
        self.root.mkdir(parents=True, exist_ok=True)
        self._scan_blocks = framing.scan_records(
            self.block_log_path, BLOCK_LOG_MAGIC
        )
        self._scan_undo = framing.scan_records(self.undo_log_path, UNDO_LOG_MAGIC)
        truncated = (
            self._scan_blocks.truncated_bytes + self._scan_undo.truncated_bytes
        )
        if obs.ENABLED and truncated:
            obs.inc("store.truncated_bytes_total", truncated)
            obs.inc(
                "store.truncated_records_total",
                int(self._scan_blocks.truncated_bytes > 0)
                + int(self._scan_undo.truncated_bytes > 0),
            )
            obs.inc(
                "store.crc_failures_total",
                self._scan_blocks.crc_failures + self._scan_undo.crc_failures,
            )
            obs.emit(
                "store.truncated",
                path=str(self.root),
                bytes=truncated,
            )
        self._block_log = framing.open_for_append(
            self.block_log_path, BLOCK_LOG_MAGIC, self._scan_blocks.valid_length
        )
        self._undo_log = framing.open_for_append(
            self.undo_log_path, UNDO_LOG_MAGIC, self._scan_undo.valid_length
        )
        self._manifest = self._read_manifest()
        self._opened = True
        return self

    def close(self) -> None:
        """Release file handles (flushed appends stay on disk)."""
        for fh in (self._block_log, self._undo_log):
            if fh is not None:
                try:
                    fh.close()
                except ValueError:  # pragma: no cover - already closed
                    pass
        self._block_log = None
        self._undo_log = None
        self._opened = False

    def wipe(self) -> None:
        """Delete every store file — the ``persist_chain=False`` path."""
        self.close()
        if not self.root.exists():
            return
        for entry in self.root.iterdir():
            if entry.name in (BLOCK_LOG_NAME, UNDO_LOG_NAME, MANIFEST_NAME) or (
                entry.name.startswith("utxo-")
                and entry.name.endswith((".snap", ".snap.tmp"))
            ):
                entry.unlink()
        self._manifest = {}
        self._scan_blocks = None
        self._scan_undo = None
        self._connects_since_snapshot = 0

    @property
    def is_empty(self) -> bool:
        """True when no block records survived the scan (fresh store)."""
        self._require_open()
        return not self._scan_blocks.records

    def _require_open(self) -> None:
        if not self._opened:
            raise StoreError("store is not open")

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def _read_manifest(self) -> dict:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            return {}
        except (ValueError, OSError) as exc:
            raise StoreError(f"unreadable manifest: {exc}") from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise StoreError(
                f"unsupported manifest version {manifest.get('version')!r}"
            )
        return manifest

    def _write_manifest(self) -> None:
        data = json.dumps(self._manifest, indent=2, sort_keys=True)
        tmp_path = os.fspath(self.manifest_path) + ".tmp"
        with open(tmp_path, "w") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, self.manifest_path)

    def set_genesis(self, genesis_hash: bytes) -> None:
        """Bind the store to one chain; a mismatch means a foreign store."""
        self._require_open()
        recorded = self._manifest.get("genesis")
        if recorded is not None and recorded != genesis_hash.hex():
            raise StoreError(
                "store belongs to a different chain "
                f"(genesis {recorded} != {genesis_hash.hex()})"
            )
        if recorded is None:
            self._manifest["version"] = MANIFEST_VERSION
            self._manifest["genesis"] = genesis_hash.hex()
            self._manifest.setdefault("snapshot", None)
            self._write_manifest()

    # ------------------------------------------------------------------
    # Append path (Blockchain connect/disconnect hooks)
    # ------------------------------------------------------------------

    def _append(self, fh, payload: bytes) -> int:
        record = framing.encode_record(payload)
        fh.write(record)
        fh.flush()
        if self.fsync_appends:
            os.fsync(fh.fileno())
        return len(record)

    def append_connect(self, block: Block, height: int, undo: BlockUndo) -> None:
        """Persist one block connect: the block record plus its undo."""
        self._require_open()
        written = self._append(
            self._block_log, codec.encode_connect(block, height)
        )
        written += self._append(
            self._undo_log, codec.encode_undo_record(block.hash, height, undo)
        )
        self._connects_since_snapshot += 1
        if obs.ENABLED:
            obs.inc("store.blocks_appended_total")
            obs.inc("store.bytes_written_total", written)

    def append_disconnect(self, block_hash: bytes, height: int) -> None:
        """Persist one tip disconnect (reorg rollback marker)."""
        self._require_open()
        written = self._append(
            self._block_log, codec.encode_disconnect(block_hash, height)
        )
        if obs.ENABLED:
            obs.inc("store.bytes_written_total", written)

    def should_snapshot(self) -> bool:
        return (
            self.snapshot_interval > 0
            and self._connects_since_snapshot >= self.snapshot_interval
        )

    def write_snapshot(self, utxos: UTXOSet, height: int, tip: bytes) -> Path:
        """Publish a UTXO snapshot consistent with the current log tails.

        Both logs are fsynced first so the recorded offsets refer to
        bytes that are guaranteed durable — a torn tail can only ever
        lie *after* the newest snapshot's offsets.
        """
        self._require_open()
        for fh in (self._block_log, self._undo_log):
            fh.flush()
            os.fsync(fh.fileno())
        path = self.snapshot_path(height)
        size = write_snapshot_file(path, utxos, height, tip)
        previous = self._manifest.get("snapshot") or {}
        self._manifest["version"] = MANIFEST_VERSION
        self._manifest["snapshot"] = {
            "file": path.name,
            "height": height,
            "tip": tip.hex(),
            "blocks_offset": self._block_log.tell(),
            "undo_offset": self._undo_log.tell(),
        }
        self._write_manifest()
        self._connects_since_snapshot = 0
        old_file = previous.get("file")
        if old_file and old_file != path.name:
            # The manifest no longer references it; reclaim the space.
            try:
                (self.root / old_file).unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        if obs.ENABLED:
            obs.inc("store.snapshots_total")
            obs.inc("store.bytes_written_total", size)
            obs.emit(
                "store.snapshot", height=height, tip=tip, bytes=size
            )
        return path

    def snapshot_offsets_consistent(self) -> bool:
        """Whether the manifest snapshot's log offsets are ≤ the log tails.

        A snapshot whose recorded ``blocks_offset``/``undo_offset`` lie
        beyond the bytes actually written would make recovery seek past
        the end of a log — an invariant the runtime monitors sample
        (:mod:`repro.obs.monitor`).  A store with no snapshot (or not
        currently open) is trivially consistent.
        """
        if not self._opened:
            return True
        manifest_snap = self._manifest.get("snapshot")
        if not manifest_snap:
            return True
        return (
            int(manifest_snap.get("blocks_offset", 0)) <= self._block_log.tell()
            and int(manifest_snap.get("undo_offset", 0)) <= self._undo_log.tell()
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Decode the scanned logs + newest usable snapshot (see module
        docstring for the algorithm)."""
        self._require_open()
        state = RecoveredState(
            blocks_truncated=self._scan_blocks.truncated_bytes,
            undo_truncated=self._scan_undo.truncated_bytes,
            crc_failures=self._scan_blocks.crc_failures
            + self._scan_undo.crc_failures,
        )
        genesis_hex = self._manifest.get("genesis")
        state.genesis = bytes.fromhex(genesis_hex) if genesis_hex else None

        for offset, payload in self._scan_blocks.records:
            try:
                kind, height, block, block_hash = codec.decode_block_record(
                    payload
                )
            except codec.CodecError as exc:
                raise StoreError(f"corrupt block log: {exc}") from exc
            state.records.append(
                LogRecord(
                    kind=kind,
                    height=height,
                    offset=offset,
                    block_hash=block_hash,
                    block=block,
                )
            )
        for _, payload in self._scan_undo.records:
            try:
                block_hash, _height, undo = codec.decode_undo_record(payload)
            except codec.CodecError as exc:
                raise StoreError(f"corrupt undo log: {exc}") from exc
            # Last record wins: a block reconnected after a reorg logs a
            # fresh (identical) undo; the newest is always current.
            state.undo_by_hash[block_hash] = undo

        manifest_snap = self._manifest.get("snapshot")
        if manifest_snap:
            state.snapshot, state.snapshot_offset = self._load_snapshot(
                manifest_snap
            )
        return state

    def _load_snapshot(
        self, manifest_snap: dict
    ) -> tuple[SnapshotData | None, int]:
        """Validate the manifest's snapshot against the surviving logs.

        An unusable snapshot (checksum failure, or log offsets past what
        survived truncation — impossible unless the logs themselves were
        damaged *before* the snapshot was cut) degrades to a full replay
        rather than failing recovery.
        """
        blocks_offset = int(manifest_snap.get("blocks_offset", 0))
        undo_offset = int(manifest_snap.get("undo_offset", 0))
        if (
            blocks_offset > self._scan_blocks.valid_length
            or undo_offset > self._scan_undo.valid_length
        ):
            if obs.ENABLED:
                obs.inc("store.snapshot_fallbacks_total")
            return None, 0
        try:
            snapshot = read_snapshot_file(self.root / manifest_snap["file"])
        except SnapshotError:
            if obs.ENABLED:
                obs.inc("store.snapshot_fallbacks_total")
            return None, 0
        if (
            snapshot.height != int(manifest_snap.get("height", -1))
            or snapshot.tip.hex() != manifest_snap.get("tip")
        ):
            if obs.ENABLED:
                obs.inc("store.snapshot_fallbacks_total")
            return None, 0
        return snapshot, blocks_offset
