"""Tests for the durable block store: framing, codecs, snapshots,
crash-safe recovery, and the node/chaos integration."""

import json
import os
from dataclasses import replace
from random import Random

import pytest

from repro.bitcoin.block import Block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.faults import inject_torn_write, run_kill_mid_write
from repro.bitcoin.mempool import Mempool
from repro.bitcoin.miner import Miner
from repro.bitcoin.network import Node, Simulation
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, OutPoint, TxOut
from repro.bitcoin.utxo import (
    COINBASE_MATURITY,
    BlockUndo,
    SpentInfo,
    UTXOEntry,
    UTXOSet,
)
from repro.bitcoin.validation import ValidationError
from repro.bitcoin.wallet import Wallet
from repro import obs
from repro.obs.monitor import MonitorRegistry, set_monitors
from repro.core.overlay import output_script
from repro.store import (
    BlockStore,
    FramingError,
    SnapshotError,
    StoreError,
    recover_chain,
)
from repro.store import codec, framing
from repro.store.snapshot import (
    decode_snapshot,
    encode_snapshot,
    read_snapshot_file,
    write_snapshot_file,
)
from tests.oracles import full_scan_spendables

MINER_KEY = Wallet.from_seed(b"store-miner").key_hash


def mine(chain, n=1, extra_nonce_base=0, key_hash=MINER_KEY):
    miner = Miner(chain, key_hash)
    return [
        miner.mine_block(extra_nonce=extra_nonce_base + i) for i in range(n)
    ]


def stored_chain(tmp_path, blocks=5, snapshot_interval=0):
    """A regtest chain with ``blocks`` mined blocks mirrored to disk."""
    chain = Blockchain(ChainParams.regtest())
    store = BlockStore(
        tmp_path, snapshot_interval=snapshot_interval
    ).open()
    chain.attach_store(store)
    mine(chain, blocks)
    return chain, store


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------


class TestFraming:
    MAGIC = b"TESTLOG1"

    def write_log(self, path, payloads):
        with open(path, "wb") as fh:
            framing.write_file_header(fh, self.MAGIC)
            for payload in payloads:
                fh.write(framing.encode_record(payload))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "log"
        payloads = [b"alpha", b"", b"\x00" * 100]
        self.write_log(path, payloads)
        scan = framing.scan_records(path, self.MAGIC)
        assert [p for _, p in scan.records] == payloads
        assert scan.truncated_bytes == 0
        assert scan.crc_failures == 0
        assert scan.valid_length == os.path.getsize(path)

    def test_missing_file_is_empty(self, tmp_path):
        scan = framing.scan_records(tmp_path / "nope", self.MAGIC)
        assert scan.records == []
        assert scan.valid_length == 0

    def test_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "log"
        self.write_log(path, [b"x"])
        with pytest.raises(FramingError, match="bad log header"):
            framing.scan_records(path, b"OTHERMAG")

    def test_torn_payload_truncated(self, tmp_path):
        path = tmp_path / "log"
        self.write_log(path, [b"first", b"second"])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)  # cut into the last payload
        scan = framing.scan_records(path, self.MAGIC)
        assert [p for _, p in scan.records] == [b"first"]
        assert scan.truncated_bytes == (size - 3) - scan.valid_length
        assert scan.crc_failures == 0

    def test_torn_record_header_truncated(self, tmp_path):
        path = tmp_path / "log"
        self.write_log(path, [b"first"])
        with open(path, "ab") as fh:
            fh.write(b"\x05\x00")  # 2 bytes of a new record header
        scan = framing.scan_records(path, self.MAGIC)
        assert [p for _, p in scan.records] == [b"first"]
        assert scan.truncated_bytes == 2

    def test_crc_mismatch_stops_scan(self, tmp_path):
        path = tmp_path / "log"
        self.write_log(path, [b"first", b"second"])
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"\xff")
        scan = framing.scan_records(path, self.MAGIC)
        assert [p for _, p in scan.records] == [b"first"]
        assert scan.crc_failures == 1

    def test_corrupt_length_field_stops_scan(self, tmp_path):
        path = tmp_path / "log"
        self.write_log(path, [b"first"])
        with open(path, "ab") as fh:
            fh.write((2**31).to_bytes(4, "little") + b"\x00" * 8)
        scan = framing.scan_records(path, self.MAGIC)
        assert [p for _, p in scan.records] == [b"first"]
        assert scan.crc_failures == 1  # bogus length counts as corruption

    def test_header_torn_file_counts_as_empty(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"TEST")  # half a file header
        scan = framing.scan_records(path, self.MAGIC)
        assert scan.records == []
        assert scan.valid_length == 0
        assert scan.truncated_bytes == 4

    def test_open_for_append_truncates_tail(self, tmp_path):
        path = tmp_path / "log"
        self.write_log(path, [b"first", b"second"])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        scan = framing.scan_records(path, self.MAGIC)
        fh = framing.open_for_append(path, self.MAGIC, scan.valid_length)
        fh.write(framing.encode_record(b"third"))
        fh.close()
        scan = framing.scan_records(path, self.MAGIC)
        assert [p for _, p in scan.records] == [b"first", b"third"]


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------


class TestCodec:
    def test_block_record_round_trip(self):
        chain = Blockchain(ChainParams.regtest())
        [block] = mine(chain, 1)
        payload = codec.encode_connect(block, 1)
        kind, height, decoded, block_hash = codec.decode_block_record(payload)
        assert kind == codec.RECORD_CONNECT
        assert height == 1
        assert decoded.hash == block.hash
        assert decoded.serialize() == block.serialize()
        assert block_hash == block.hash

    def test_disconnect_record_round_trip(self):
        payload = codec.encode_disconnect(b"\xab" * 32, 7)
        kind, height, block, block_hash = codec.decode_block_record(payload)
        assert kind == codec.RECORD_DISCONNECT
        assert height == 7
        assert block is None
        assert block_hash == b"\xab" * 32

    def test_undo_record_round_trip(self):
        undo = BlockUndo(
            spent=[
                SpentInfo(
                    OutPoint(b"\x01" * 32, 3),
                    UTXOEntry(
                        TxOut(5 * COIN, p2pkh_script(b"\x02" * 20)), 42, True
                    ),
                )
            ],
            created=[OutPoint(b"\x03" * 32, 0), OutPoint(b"\x04" * 32, 1)],
        )
        payload = codec.encode_undo_record(b"\xcd" * 32, 43, undo)
        block_hash, height, decoded = codec.decode_undo_record(payload)
        assert block_hash == b"\xcd" * 32
        assert height == 43
        assert decoded.created == undo.created
        assert len(decoded.spent) == 1
        assert decoded.spent[0].outpoint == undo.spent[0].outpoint
        assert decoded.spent[0].entry == undo.spent[0].entry

    def test_unknown_kind_rejected(self):
        with pytest.raises(codec.CodecError, match="unknown"):
            codec.decode_block_record(bytes([99]) + b"\x00" * 4)

    def test_block_parse_round_trip(self):
        """Block.serialize/parse (added for the log) is a faithful pair."""
        net = RegtestNetwork()
        alice = Wallet.from_seed(b"codec-alice")
        net.fund_wallet(alice)
        tx = alice.create_transaction(
            net.chain, [TxOut(COIN, p2pkh_script(b"\x09" * 20))], fee=1000
        )
        net.send(tx)
        [block] = net.confirm(1)
        parsed = Block.parse(block.serialize())
        assert parsed.hash == block.hash
        assert [t.txid for t in parsed.txs] == [t.txid for t in block.txs]


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


class TestSnapshot:
    def build_set(self):
        utxos = UTXOSet()
        for i in range(5):
            utxos.add(
                OutPoint(bytes([i]) * 32, i),
                UTXOEntry(
                    TxOut(i * COIN, p2pkh_script(bytes([i]) * 20)), i, i % 2 == 0
                ),
            )
        return utxos

    def test_round_trip(self):
        utxos = self.build_set()
        data = encode_snapshot(utxos, 10, b"\xaa" * 32)
        snap = decode_snapshot(data)
        assert snap.height == 10
        assert snap.tip == b"\xaa" * 32
        assert snap.to_utxo_set().snapshot() == utxos.snapshot()

    def test_deterministic_bytes(self):
        # Same set inserted in different orders → identical files.
        a = self.build_set()
        b = UTXOSet()
        for outpoint, entry in sorted(
            a.items(), key=lambda kv: kv[0], reverse=True
        ):
            b.add(outpoint, entry)
        assert encode_snapshot(a, 1, b"\x00" * 32) == encode_snapshot(
            b, 1, b"\x00" * 32
        )

    def test_checksum_failure_detected(self, tmp_path):
        path = tmp_path / "utxo.snap"
        write_snapshot_file(path, self.build_set(), 10, b"\xaa" * 32)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot_file(path)

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "utxo.snap"
        write_snapshot_file(path, self.build_set(), 10, b"\xaa" * 32)
        # No temp file left behind; the published file decodes.
        assert not os.path.exists(str(path) + ".tmp")
        assert read_snapshot_file(path).height == 10


# ----------------------------------------------------------------------
# BlockStore + recovery
# ----------------------------------------------------------------------


class TestBlockStore:
    def assert_same_state(self, a: Blockchain, b: Blockchain):
        assert a.tip.block.hash == b.tip.block.hash
        assert a.height == b.height
        assert a.utxos.snapshot() == b.utxos.snapshot()
        assert a.utxos.serialized_size() == b.utxos.serialized_size()
        assert a.utxos.total_value() == b.utxos.total_value()
        assert a._tx_index == b._tx_index
        assert a._spenders == b._spenders

    def reopen(self, tmp_path) -> Blockchain:
        return recover_chain(BlockStore(tmp_path).open())

    def test_recover_empty_store_is_fresh_chain(self, tmp_path):
        chain = recover_chain(BlockStore(tmp_path).open())
        assert chain.height == 0
        assert chain.store is not None

    def test_full_replay_recovery(self, tmp_path):
        chain, store = stored_chain(tmp_path, blocks=6)
        store.close()
        self.assert_same_state(self.reopen(tmp_path), chain)

    def test_snapshot_recovery(self, tmp_path):
        chain, store = stored_chain(tmp_path, blocks=7, snapshot_interval=3)
        assert any(
            name.startswith("utxo-") for name in os.listdir(tmp_path)
        )
        store.close()
        self.assert_same_state(self.reopen(tmp_path), chain)

    def test_recovered_chain_keeps_appending(self, tmp_path):
        chain, store = stored_chain(tmp_path, blocks=3)
        store.close()
        recovered = self.reopen(tmp_path)
        mine(recovered, 2, extra_nonce_base=100)
        recovered.store.close()
        self.assert_same_state(self.reopen(tmp_path), recovered)
        del chain

    def test_torn_tail_recovers_previous_tip(self, tmp_path):
        chain, store = stored_chain(tmp_path, blocks=5)
        store.close()
        path = os.path.join(tmp_path, "blocks.log")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 7)
        recovered = self.reopen(tmp_path)
        assert recovered.height == 4
        assert recovered.tip.block.hash == chain.block_at(4).hash
        # Byte-identical to an independent replay of the same prefix.
        oracle = Blockchain(ChainParams.regtest())
        for h in range(1, 5):
            oracle.add_block(chain.block_at(h))
        self.assert_same_state(recovered, oracle)

    def test_recovered_wallet_sees_its_pre_crash_coins(self, tmp_path):
        """The table's owner index is rebuilt by both halves of recovery —
        snapshot install and log replay — so coin selection on the
        recovered chain offers exactly what it offered before the crash."""
        wallet = Wallet.from_seed(b"store-miner")
        chain, store = stored_chain(
            tmp_path,
            blocks=COINBASE_MATURITY + 2,
            snapshot_interval=COINBASE_MATURITY,
        )
        assert any(name.startswith("utxo-") for name in os.listdir(tmp_path))
        # Past the snapshot: spend a matured coinbase into a carrier lock
        # and a payment, so replay has index entries to remove and to add.
        carrier = output_script(wallet.default_key.public.encoded, b"\x33" * 32)
        mempool = Mempool(chain)
        mempool.accept(
            wallet.create_transaction(
                chain,
                [TxOut(600, carrier), TxOut(COIN, p2pkh_script(b"\x44" * 20))],
                fee=1000,
            )
        )
        Miner(chain, MINER_KEY).mine_block(mempool, extra_nonce=500)
        before = wallet.spendables(chain)
        assert [s.output.value for s in before if not s.is_coinbase] == [
            600, 49 * COIN - 600 - 1000,
        ]
        assert sum(s.is_coinbase for s in before) == 2
        mine(chain, 1, extra_nonce_base=600)  # the block the crash tears
        assert wallet.spendables(chain) != before
        store.close()
        path = os.path.join(tmp_path, "blocks.log")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 7)

        recovered = self.reopen(tmp_path)
        assert recovered.height == COINBASE_MATURITY + 3
        assert wallet.spendables(recovered) == before
        assert full_scan_spendables(wallet, recovered) == before

    def test_corrupt_crc_recovers_previous_tip(self, tmp_path):
        chain, store = stored_chain(tmp_path, blocks=5)
        store.close()
        path = os.path.join(tmp_path, "blocks.log")
        with open(path, "r+b") as fh:
            fh.seek(-10, os.SEEK_END)
            fh.write(b"\xff")
        recovered = self.reopen(tmp_path)
        assert recovered.height == 4
        assert recovered.tip.block.hash == chain.block_at(4).hash

    def test_torn_tail_below_snapshot_falls_back(self, tmp_path):
        """Offsets past the surviving log invalidate the snapshot; the
        store degrades to a full replay instead of failing."""
        chain, store = stored_chain(tmp_path, blocks=6, snapshot_interval=6)
        store.close()
        path = os.path.join(tmp_path, "blocks.log")
        # Chop deep into the log — far below the snapshot's offsets.
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        recovered = self.reopen(tmp_path)
        assert 0 < recovered.height < 6
        assert recovered.tip.block.hash == chain.block_at(recovered.height).hash

    def test_a_torn_record_under_the_snapshot_forgets_it(self, tmp_path):
        """A snapshot cut after the record a crash then tears names offsets
        past the surviving log: recovery replays in full and drops the
        snapshot from the manifest, so the ``store_offsets`` invariant
        holds and a log that grows back past those offsets cannot revive
        it."""
        chain, store = stored_chain(tmp_path, blocks=6, snapshot_interval=6)
        store.close()
        inject_torn_write(str(tmp_path), Random(1), mode="truncate")
        store = BlockStore(tmp_path).open()
        state = store.recover()
        assert state.snapshot is None
        assert store.snapshot_offsets_consistent()
        store.close()
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["snapshot"] is None
        recovered = self.reopen(tmp_path)
        assert recovered.height == 5
        assert recovered.tip.block.hash == chain.block_at(5).hash

    def test_reorg_is_persisted(self, tmp_path):
        chain, store = stored_chain(tmp_path, blocks=2)
        rival = Blockchain(ChainParams.regtest())
        rival_blocks = mine(
            rival, 3, extra_nonce_base=1000,
            key_hash=Wallet.from_seed(b"store-rival").key_hash,
        )
        for block in rival_blocks:
            chain.add_block(block)
        assert chain.tip.block.hash == rival_blocks[-1].hash
        store.close()
        self.assert_same_state(self.reopen(tmp_path), chain)

    def test_wipe_deletes_everything(self, tmp_path):
        _, store = stored_chain(tmp_path, blocks=3, snapshot_interval=2)
        store.wipe()
        assert recover_chain(BlockStore(tmp_path).open()).height == 0

    def test_foreign_chain_store_rejected(self, tmp_path):
        _, store = stored_chain(tmp_path, blocks=1)
        store.close()
        foreign = replace(ChainParams.regtest(), max_target=2**251)
        other = Blockchain(foreign)
        with pytest.raises(StoreError, match="different chain"):
            other.attach_store(BlockStore(tmp_path).open())

    def test_genesis_mismatch_on_restore_rejected(self, tmp_path):
        _, store = stored_chain(tmp_path, blocks=1)
        store.close()
        reopened = BlockStore(tmp_path).open()
        foreign = replace(ChainParams.regtest(), max_target=2**251)
        with pytest.raises(ValidationError, match="genesis mismatch"):
            Blockchain.restore(reopened.recover(), params=foreign)

    def test_snapshot_rotation_keeps_latest(self, tmp_path):
        _, store = stored_chain(tmp_path, blocks=9, snapshot_interval=3)
        snaps = [
            n for n in os.listdir(tmp_path) if n.startswith("utxo-")
        ]
        assert snaps == ["utxo-00000009.snap"]
        store.close()


# ----------------------------------------------------------------------
# Node integration (crash / restart semantics)
# ----------------------------------------------------------------------


def flat_params():
    return ChainParams(
        max_target=2**252, retarget_window=2**31, require_pow=False
    )


class TestNodeStore:
    def make_pair(self, tmp_path):
        sim = Simulation(seed=11)
        params = flat_params()
        victim = Node("victim", sim, params, store_dir=str(tmp_path))
        peer = Node("peer", sim, params)
        victim.connect(peer)
        return sim, victim, peer

    def feed_blocks(self, sim, peer, n):
        chain = Blockchain(peer.params)
        for block in mine(chain, n):
            peer.submit_block(block)
        sim.run_until(sim.now + 3600.0)

    def test_restart_recovers_from_disk(self, tmp_path):
        sim, victim, peer = self.make_pair(tmp_path)
        self.feed_blocks(sim, peer, 4)
        assert victim.chain.height == 4
        tip = victim.chain.tip.block.hash
        victim.crash()
        # Sever the in-memory object entirely: prove restart reads disk.
        victim.chain = None
        victim.restart(persist_chain=True, resync=False)
        assert victim.chain.height == 4
        assert victim.chain.tip.block.hash == tip
        assert victim.chain.store is not None

    def test_restart_without_persistence_wipes_store(self, tmp_path):
        sim, victim, peer = self.make_pair(tmp_path)
        self.feed_blocks(sim, peer, 3)
        victim.crash()
        victim.restart(persist_chain=False, resync=False)
        assert victim.chain.height == 0  # storage lost, back to genesis
        # And the on-disk store really is gone: a fresh boot sees nothing.
        victim.crash()
        victim.restart(persist_chain=True, resync=False)
        assert victim.chain.height == 0

    def test_restart_resyncs_torn_suffix_only(self, tmp_path):
        sim, victim, peer = self.make_pair(tmp_path)
        self.feed_blocks(sim, peer, 5)
        victim.crash()
        inject_torn_write(
            str(tmp_path), sim.rng, mode="truncate", node=victim.name
        )
        victim.restart(persist_chain=True, resync=True)
        assert victim.chain.height == 4  # committed prefix, from disk
        sim.run_until(sim.now + 24 * 3600.0)
        assert victim.chain.height == 5  # torn block re-fetched from peer
        assert victim.chain.tip.block.hash == peer.chain.tip.block.hash


class TestKillMidWrite:
    @pytest.mark.parametrize("mode", ["truncate", "corrupt"])
    def test_scenario_recovers(self, tmp_path, mode):
        result = run_kill_mid_write(str(tmp_path), seed=3, mode=mode)
        assert result.pre_crash_height == 24
        assert result.tip_match
        assert result.utxo_match
        assert result.converged
        assert result.refetched_blocks <= 1
        assert result.ok

    def test_strict_monitors_check_the_store_at_both_boundaries(
        self, tmp_path, monkeypatch
    ):
        calls = []
        consistent = BlockStore.snapshot_offsets_consistent
        monkeypatch.setattr(
            BlockStore,
            "snapshot_offsets_consistent",
            lambda store: calls.append(store) or consistent(store),
        )
        was_enabled = obs.ENABLED
        saved_registry = obs.set_registry(obs.Registry())
        saved_events = obs.set_event_log(obs.EventLog())
        saved_monitors = set_monitors(MonitorRegistry(enabled=True, strict=True))
        obs.enable()
        try:
            result = run_kill_mid_write(str(tmp_path), seed=3)
        finally:
            set_monitors(saved_monitors)
            obs.set_registry(saved_registry)
            obs.set_event_log(saved_events)
            obs.ENABLED = was_enabled
        assert result.ok
        assert len(calls) == 2  # after recovery and after convergence

    def test_deterministic(self, tmp_path):
        a = run_kill_mid_write(str(tmp_path / "a"), seed=5)
        b = run_kill_mid_write(str(tmp_path / "b"), seed=5)
        assert (a.recovered_height, a.refetched_blocks, a.final_height) == (
            b.recovered_height,
            b.refetched_blocks,
            b.final_height,
        )
