"""BIP 152-style compact block relay (repro.bitcoin.compact + network).

Covers the data plane (SipHash vectors, short ids, reconstruction) and
the recovery state machine end to end on seeded simulations: warm-mempool
hits, getblocktxn round-trips for misses, short-id collision fallback to
the full block, the timeout ladder under total message loss, withheld-
data penalization of an adversary, and the opt-out purity differential
(compact on vs off must be bit-identical on tx-free relay).
"""

from types import SimpleNamespace

import pytest

from repro.bitcoin import compact as cmod, faults
from repro.bitcoin.chain import ChainParams
from repro.bitcoin.compact import (
    COMPACT_MAX_ATTEMPTS,
    COMPACT_TXN_TIMEOUT,
    POINTS_BAD_COMPACT,
    CompactBlock,
    MalformedCompactError,
    PrefilledTransaction,
    finalize,
    reconstruct,
    short_id_key,
    short_txid,
    siphash24,
)
from repro.bitcoin.faults import ByzantinePeer, LinkPolicy
from repro.bitcoin.miner import Miner
from repro.bitcoin.network import (
    DEFAULT_BAN_THRESHOLD,
    Node,
    PoissonMiner,
    Simulation,
    build_network,
)
from repro.bitcoin.population import fund_wallets, sim_chain_params
from repro.bitcoin.pow import block_work, target_to_bits
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.wallet import Wallet

# Official SipHash-2-4 reference vectors (key = bytes(range(16)),
# message = bytes(range(n))) from the Aumasson/Bernstein test suite.
SIPHASH_VECTORS = [
    0x726FDB47DD0E0E31,
    0x74F839C593DC67FD,
    0x0D6C8009D9A94F5A,
    0x85676696D7FB7E2D,
    0xCF2794E0277187B7,
    0x18765564CD99A68D,
    0xCBC9466E58FEE3CE,
    0xAB0200F58B01D137,
    0x93F5F5799A932462,
]


class TestSipHash:
    def test_reference_vectors(self):
        key = bytes(range(16))
        for n, expected in enumerate(SIPHASH_VECTORS):
            assert siphash24(key, bytes(range(n))) == expected, n

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            siphash24(b"short", b"data")


def _wallet_tx(wallet, chain, value=600, fee=10_000):
    return wallet.create_transaction(
        chain, [TxOut(value, p2pkh_script(wallet.key_hash))], fee=fee
    )


@pytest.fixture(scope="module")
def funded():
    """Six funded wallets (four outputs each) and the chain prefix that
    funds them, minted once per module under the simulator's params."""
    wallets = [Wallet.from_seed(b"compact-w%d" % i) for i in range(6)]
    blocks = fund_wallets([w.key_hash for w in wallets for _ in range(4)])
    return wallets, blocks


def _pair(seed=1, compact=True):
    sim = Simulation(seed=seed)
    params = sim_chain_params()
    a = Node("a", sim, params)
    b = Node("b", sim, params)
    a.compact_relay = compact
    b.compact_relay = compact
    a.connect(b)
    return sim, a, b


def _preload(nodes, blocks):
    for node in nodes:
        for block in blocks:
            assert node.chain.add_block(block)


def _mine(node, extra_nonce=1):
    miner = Miner(node.chain, Wallet.from_seed(b"compact-miner").key_hash)
    return miner.assemble(
        node.mempool,
        timestamp=node.chain.median_time_past() + 1,
        extra_nonce=extra_nonce,
    )


class TestShortIds:
    def test_short_id_is_48_bits_and_key_dependent(self, funded):
        wallets, blocks = funded
        txid = b"\xab" * 32
        key_a = short_id_key(blocks[1].header, nonce=1)
        key_b = short_id_key(blocks[1].header, nonce=2)
        sid = short_txid(key_a, txid)
        assert len(sid) == 6
        assert sid == short_txid(key_a, txid)
        assert sid != short_txid(key_b, txid)

    def test_from_block_prefills_coinbase_and_salts_by_sender(self, funded):
        _, blocks = funded
        block = blocks[-1]
        cb_x = CompactBlock.from_block(block, salt=b"x")
        cb_y = CompactBlock.from_block(block, salt=b"y")
        assert cb_x.prefilled == (PrefilledTransaction(0, block.txs[0]),)
        assert cb_x.tx_count == len(block.txs)
        assert cb_x.nonce != cb_y.nonce
        if len(block.txs) > 1:
            assert cb_x.short_ids != cb_y.short_ids
        # Deterministic per (block, salt): no RNG in announcement building.
        assert CompactBlock.from_block(block, salt=b"x") == cb_x

    def test_announcement_is_sublinear_in_block_size(self, funded):
        _, blocks = funded
        block = max(blocks, key=lambda b: len(b.txs))
        assert len(block.txs) > 1  # the fanout block
        cb = CompactBlock.from_block(block)
        assert cb.serialized_size() < block.serialized_size() / 2


class _FakeMempool:
    def __init__(self, *txs):
        self._txs = txs

    def transactions(self):
        return [SimpleNamespace(tx=tx) for tx in self._txs]


class TestReconstruction:
    def test_complete_from_warm_mempool(self, funded):
        wallets, blocks = funded
        block = max(blocks, key=lambda b: len(b.txs))
        cb = CompactBlock.from_block(block)
        result = reconstruct(cb, _FakeMempool(*block.txs[1:]))
        assert result.complete
        assert result.collisions == 0
        assert finalize(cb, result.txs) == block

    def test_cold_mempool_misses_everything(self, funded):
        _, blocks = funded
        block = max(blocks, key=lambda b: len(b.txs))
        cb = CompactBlock.from_block(block)
        result = reconstruct(cb, _FakeMempool())
        assert not result.complete
        assert list(result.missing) == list(range(1, len(block.txs)))
        assert finalize(cb, result.txs) is None

    def test_ambiguous_short_id_counts_as_collision_miss(
        self, funded, monkeypatch
    ):
        wallets, blocks = funded
        block = max(blocks, key=lambda b: len(b.txs))
        monkeypatch.setattr(cmod, "short_txid", lambda key, txid: b"\x00" * 6)
        cb = CompactBlock.from_block(block)
        other = Transaction(
            vin=[TxIn(OutPoint(b"\x77" * 32, 0))],
            vout=[TxOut(1_000, p2pkh_script(b"\x77" * 20))],
        )
        # Two distinct pool transactions share the (degenerate) short id:
        # ambiguous, so every slot is a miss — never a wrong guess.
        result = reconstruct(cb, _FakeMempool(block.txs[1], other))
        assert result.collisions == 1
        assert not result.complete

    def test_malformed_prefilled_rejected(self, funded):
        _, blocks = funded
        block = blocks[1]
        good = CompactBlock.from_block(block)
        out_of_range = CompactBlock(
            header=good.header,
            nonce=good.nonce,
            short_ids=good.short_ids,
            prefilled=(PrefilledTransaction(9, block.txs[0]),),
        )
        with pytest.raises(MalformedCompactError):
            reconstruct(out_of_range, _FakeMempool())
        duplicated = CompactBlock(
            header=good.header,
            nonce=good.nonce,
            short_ids=good.short_ids,
            prefilled=(
                PrefilledTransaction(0, block.txs[0]),
                PrefilledTransaction(0, block.txs[0]),
            ),
        )
        with pytest.raises(MalformedCompactError):
            reconstruct(duplicated, _FakeMempool())


class TestRelayHit:
    def test_warm_mempool_reconstructs_without_roundtrip(self, funded):
        wallets, blocks = funded
        sim, a, b = _pair(seed=2)
        _preload([a, b], blocks)
        txs = [_wallet_tx(w, a.chain) for w in wallets[:3]]
        for tx in txs:
            a.mempool.accept(tx)
            b.mempool.accept(tx)
        block = _mine(a)
        assert len(block.txs) == 4
        a.submit_block(block)
        sim.run_until(600)
        assert b.chain.has_block(block.hash)
        assert b.chain.tip.block.hash == block.hash
        # The announcement went compact, cost less than half the block,
        # and needed no round-trip.
        assert a.bytes_sent["compact"] < block.serialized_size() / 2
        assert "block" not in a.bytes_sent
        assert "getblocktxn" not in b.bytes_sent

    def test_opted_out_peer_still_gets_full_blocks(self, funded):
        wallets, blocks = funded
        sim, a, b = _pair(seed=3)
        b.compact_relay = False
        _preload([a, b], blocks)
        tx = _wallet_tx(wallets[0], a.chain)
        a.mempool.accept(tx)
        b.mempool.accept(tx)
        block = _mine(a)
        a.submit_block(block)
        sim.run_until(600)
        assert b.chain.tip.block.hash == block.hash
        assert "compact" not in a.bytes_sent
        assert a.bytes_sent["block"] == block.serialized_size()


class TestRelayMiss:
    def test_missing_txs_recovered_via_getblocktxn(self, funded):
        wallets, blocks = funded
        sim, a, b = _pair(seed=4)
        _preload([a, b], blocks)
        txs = [_wallet_tx(w, a.chain) for w in wallets[:3]]
        for tx in txs:
            a.mempool.accept(tx)  # b's mempool stays cold
        block = _mine(a)
        a.submit_block(block)
        sim.run_until(600)
        assert b.chain.tip.block.hash == block.hash
        assert b.bytes_sent["getblocktxn"] > 0
        assert a.bytes_sent["blocktxn"] > 0
        assert "getblock" not in b.bytes_sent  # no full-block fallback
        # Reconstruction delivered the mempool transactions to b's chain.
        for tx in txs:
            assert b.chain.get_transaction(tx.txid) is not None

    def test_false_match_falls_back_to_full_block_unpenalized(
        self, funded, monkeypatch
    ):
        wallets, blocks = funded
        sim, a, b = _pair(seed=5)
        _preload([a, b], blocks)
        victim_tx = _wallet_tx(wallets[0], a.chain)
        a.mempool.accept(victim_tx)
        decoy = _wallet_tx(wallets[1], b.chain)
        b.mempool.accept(decoy)
        # Degenerate short ids: b's decoy "matches" the announced tx, so
        # reconstruction completes with the wrong transaction and the
        # merkle check catches it — the innocent-collision fallback.
        monkeypatch.setattr(cmod, "short_txid", lambda key, txid: b"\x11" * 6)
        block = _mine(a)
        a.submit_block(block)
        sim.run_until(600)
        assert b.chain.tip.block.hash == block.hash
        assert b.bytes_sent["getblock"] > 0
        assert a.bytes_sent["block"] == block.serialized_size()
        # Collisions are never misbehavior (BIP 152).
        assert b._misbehavior.get(a.name, 0) == 0
        assert a._misbehavior.get(b.name, 0) == 0


class TestRecoveryLadder:
    def test_total_loss_times_out_gives_up_and_unmarks_seen(self, funded):
        wallets, blocks = funded
        sim, a, b = _pair(seed=6)
        _preload([a, b], blocks)
        tx = _wallet_tx(wallets[0], a.chain)
        a.mempool.accept(tx)
        block = _mine(a)
        # Every b -> a message is lost: getblocktxn retries, then the
        # full-block fallback, then give-up.
        b.set_link_policy(a, LinkPolicy(drop=1.0))
        a.submit_block(block)
        ladder = COMPACT_TXN_TIMEOUT * sum(
            range(1, COMPACT_MAX_ATTEMPTS + 1)
        )
        sim.run_until(2 * ladder * 2 + 600)
        assert not b.chain.has_block(block.hash)
        assert not b.compact._compact_pending
        # The hash was un-remembered, so a later full relay delivers.
        b.set_link_policy(a, None)
        b.submit_block(block, origin=a)
        assert b.chain.tip.block.hash == block.hash
        # Loss is not misbehavior in either direction.
        assert b._misbehavior.get(a.name, 0) == 0
        assert a._misbehavior.get(b.name, 0) == 0

    def test_crash_clears_pending_reconstructions(self, funded):
        wallets, blocks = funded
        sim, a, b = _pair(seed=7)
        _preload([a, b], blocks)
        tx = _wallet_tx(wallets[0], a.chain)
        a.mempool.accept(tx)
        block = _mine(a)
        cb = CompactBlock.from_block(block, salt=a.name.encode())
        b.submit_compact_block(cb, origin=a)
        assert b.compact._compact_pending
        b.crash()
        assert not b.compact._compact_pending


class TestByzantineGarbage:
    def test_garbage_announcements_penalize_and_ban(self, monkeypatch):
        monkeypatch.setattr(faults, "ATTACK_INTERVAL", 50.0)
        sim = Simulation(seed=8)
        nodes = build_network(sim, 4)
        for node in nodes:
            node.compact_relay = True
        byz = ByzantinePeer(nodes[3], behaviors=("garbage_compact",))
        byz.start()
        victims = [n for n in nodes[:3] if nodes[3] in n.peers]
        assert victims
        sim.run_until(3_000)
        assert byz.attacks_sent["garbage_compact"] >= 10
        for victim in victims:
            # Each unbacked announcement scored POINTS_BAD_COMPACT via
            # the withheld-data path, crossing the ban threshold.
            assert victim._misbehavior.get(nodes[3].name, 0) >= DEFAULT_BAN_THRESHOLD
            assert victim.is_banned(nodes[3])
            assert nodes[3] not in victim.peers
        assert byz.banned_by(nodes[:3]) == [v.name for v in victims]


class TestOptOutPurity:
    def test_txfree_relay_identical_with_compact_on_and_off(self):
        """On coinbase-only blocks compact announcements reconstruct
        instantly (no round-trip, no extra RNG draws), so the entire
        seeded trajectory must be bit-identical to flood relay."""

        def run(compact: bool):
            sim = Simulation(seed=17)
            nodes = build_network(sim, 20)
            for node in nodes:
                node.compact_relay = compact
            rate = block_work(target_to_bits(2**252)) / 600.0
            miner = PoissonMiner(nodes[0], rate, miner_id=1)
            miner.start()
            sim.run_until(4 * 3600.0)
            return (
                [n.chain.tip.block.hash for n in nodes],
                nodes[0].chain.height,
                sim.events_processed,
            )

        flood_tips, flood_height, flood_events = run(False)
        compact_tips, compact_height, compact_events = run(True)
        assert flood_height > 0
        assert compact_tips == flood_tips
        assert compact_height == flood_height
        assert compact_events == flood_events
