"""Tests for the blockchain: acceptance, reorgs, UTXO/undo, queries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.block import Block, build_block
from repro.bitcoin.chain import Blockchain, ChainParams, block_subsidy
from repro.bitcoin.miner import Miner
from repro.bitcoin.script import Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, OutPoint, TxOut
from repro.bitcoin.validation import ValidationError
from repro.bitcoin.wallet import Wallet
from repro.bitcoin.regtest import RegtestNetwork
from tests.oracles import median_time_past_walk


def balance(wallet, chain):
    """What ``wallet`` can spend on ``chain``, summed."""
    return sum(s.output.value for s in wallet.spendables(chain))


@pytest.fixture
def chain():
    return Blockchain(ChainParams.regtest())


@pytest.fixture
def miner_key():
    return Wallet.from_seed(b"chain-miner").key_hash


def mine(chain, key_hash, n=1, extra_nonce_base=0):
    miner = Miner(chain, key_hash)
    return [
        miner.mine_block(extra_nonce=extra_nonce_base + i) for i in range(n)
    ]


class TestBasics:
    def test_genesis_is_deterministic(self):
        a = Blockchain(ChainParams.regtest())
        b = Blockchain(ChainParams.regtest())
        assert a.genesis.hash == b.genesis.hash
        assert a.height == 0

    def test_mining_extends_chain(self, chain, miner_key):
        blocks = mine(chain, miner_key, 3)
        assert chain.height == 3
        assert chain.tip.block.hash == blocks[-1].hash

    def test_duplicate_block_is_noop(self, chain, miner_key):
        [block] = mine(chain, miner_key, 1)
        assert chain.add_block(block)
        assert chain.height == 1

    def test_orphan_rejected(self, chain, miner_key):
        other = Blockchain(ChainParams.regtest())
        mine(other, miner_key, 2)
        orphan = other.tip.block
        with pytest.raises(ValidationError, match="orphan"):
            chain.add_block(orphan)

    def test_subsidy_halving(self):
        assert block_subsidy(0) == 50 * COIN
        assert block_subsidy(209_999) == 50 * COIN
        assert block_subsidy(210_000) == 25 * COIN
        assert block_subsidy(420_000) == 12.5 * COIN
        assert block_subsidy(64 * 210_000) == 0

    def test_bad_pow_rejected(self, chain, miner_key):
        miner = Miner(chain, miner_key)
        template = miner.assemble()
        # Find a nonce that does NOT meet the target.
        nonce = 0
        while template.header.with_nonce(nonce).meets_target():
            nonce += 1
        bad = Block(template.header.with_nonce(nonce), template.txs)
        with pytest.raises(ValidationError, match="proof of work"):
            chain.add_block(bad)

    def test_greedy_coinbase_rejected(self, chain, miner_key):
        miner = Miner(chain, miner_key)
        template = miner.assemble()
        greedy_coinbase = miner.make_coinbase(1, fees=COIN)  # claims phantom fees
        block = build_block(
            template.header.prev_hash,
            [greedy_coinbase],
            template.header.timestamp,
            template.header.bits,
        )
        block = miner.grind(block)
        with pytest.raises(ValidationError, match="coinbase pays more"):
            chain.add_block(block)

    def test_stale_timestamp_rejected(self, chain, miner_key):
        miner = Miner(chain, miner_key)
        template = miner.assemble(timestamp=chain.median_time_past())
        block = miner.grind(template)
        with pytest.raises(ValidationError, match="median time"):
            chain.add_block(block)


class TestQueries:
    def test_transaction_lookup_and_confirmations(self, chain, miner_key):
        [block] = mine(chain, miner_key, 1)
        coinbase = block.txs[0]
        found = chain.get_transaction(coinbase.txid)
        assert found is not None
        tx, height = found
        assert tx.txid == coinbase.txid
        assert height == 1
        assert chain.confirmations(coinbase.txid) == 1
        mine(chain, miner_key, 5, extra_nonce_base=100)
        assert chain.confirmations(coinbase.txid) == 6

    def test_unknown_tx_has_zero_confirmations(self, chain):
        assert chain.confirmations(b"\x00" * 32) == 0

    def test_spent_tracking(self):
        net = RegtestNetwork()
        alice = Wallet.from_seed(b"spent-alice")
        bob = Wallet.from_seed(b"spent-bob")
        net.fund_wallet(alice)
        coin_op = None
        for spendable in alice.spendables(net.chain):
            coin_op = spendable.outpoint
            break
        assert not net.chain.is_spent(coin_op)
        tx = alice.create_transaction(
            net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
        )
        net.send(tx)
        net.confirm()
        assert net.chain.is_spent(coin_op)
        assert net.chain.spender_of(coin_op) == tx.txid

    def test_median_time_past_is_monotone(self, chain, miner_key):
        mtps = [chain.median_time_past()]
        for i in range(12):
            mine(chain, miner_key, 1, extra_nonce_base=i * 10)
            mtps.append(chain.median_time_past())
        assert mtps == sorted(mtps)


class TestMedianTimePast:
    """Each index entry keeps its median time past; it must be what a plain
    walk over its eleven last ancestors reads, on every branch."""

    def grow(self, chain, key_hash, steps, base):
        miner = Miner(chain, key_hash)
        return [
            miner.mine_block(
                timestamp=chain.median_time_past() + 1 + step, extra_nonce=base + i
            )
            for i, step in enumerate(steps)
        ]

    def branch(self, chain, height, key_hash, steps, base):
        """Blocks extending ``chain``'s block at ``height``, built on a
        second chain that replays the prefix."""
        rival = Blockchain(ChainParams.regtest())
        for h in range(1, height + 1):
            rival.add_block(chain.block_at(h))
        return self.grow(rival, key_hash, steps, base)

    def assert_every_entry_agrees(self, chain):
        for block_hash, entry in chain._index.items():
            expected = median_time_past_walk(chain, block_hash)
            assert entry.median_time_past == expected
            assert chain.median_time_past(block_hash) == expected
        assert chain.median_time_past() == median_time_past_walk(
            chain, chain.tip.block.hash
        )

    @settings(max_examples=15, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 3_000), min_size=14, max_size=14),
        side=st.lists(st.integers(0, 3_000), min_size=3, max_size=3),
        rival=st.lists(st.integers(0, 3_000), min_size=8, max_size=8),
    )
    def test_stored_median_equals_the_walk(self, steps, side, rival):
        chain = Blockchain(ChainParams.regtest())
        key = Wallet.from_seed(b"mtp-miner").key_hash
        main = self.grow(chain, key, steps, 0)
        self.assert_every_entry_agrees(chain)
        # A side branch from height 9 stays shorter than the active chain.
        for block in self.branch(chain, 9, key, side, 100):
            assert not chain.add_block(block)
        self.assert_every_entry_agrees(chain)
        # A heavier branch from height 7 reorganizes the chain onto it.
        blocks = self.branch(chain, 7, key, rival, 200)
        for block in blocks:
            chain.add_block(block)
        assert chain.tip.block.hash == blocks[-1].hash
        assert not chain.in_active_chain(main[-1].hash)
        self.assert_every_entry_agrees(chain)


class TestReorg:
    def test_longer_branch_wins(self, miner_key):
        shared = Blockchain(ChainParams.regtest())
        mine(shared, miner_key, 2)

        # Build a competing branch on a copy (same genesis).
        rival_chain = Blockchain(ChainParams.regtest())
        rival_key = Wallet.from_seed(b"rival").key_hash
        rival_blocks = mine(rival_chain, rival_key, 3, extra_nonce_base=1000)

        old_tip = shared.tip.block.hash
        for block in rival_blocks:
            shared.add_block(block)
        assert shared.height == 3
        assert shared.tip.block.hash == rival_blocks[-1].hash
        assert not shared.in_active_chain(old_tip)

    def test_reorg_restores_utxos(self, miner_key):
        """A reorg must roll the UTXO set back and forward correctly."""
        net = RegtestNetwork()
        alice = Wallet.from_seed(b"reorg-alice")
        bob = Wallet.from_seed(b"reorg-bob")
        net.fund_wallet(alice)
        height_before = net.chain.height

        tx = alice.create_transaction(
            net.chain, [TxOut(2 * COIN, p2pkh_script(bob.key_hash))], fee=1000
        )
        net.send(tx)
        net.confirm(1)
        assert balance(bob, net.chain) == 2 * COIN

        # Build a heavier empty branch from before the payment.
        rival = Blockchain(ChainParams.regtest())
        rival_key = Wallet.from_seed(b"reorg-rival").key_hash
        rival_miner = Miner(rival, rival_key)
        # Reproduce the shared history by replaying blocks.
        for h in range(1, height_before + 1):
            rival.add_block(net.chain.block_at(h))
        blocks = [
            rival_miner.mine_block(extra_nonce=5000 + i) for i in range(2)
        ]
        for block in blocks:
            net.chain.add_block(block)

        # Bob's payment is gone; Alice's coin is unspent again.
        assert balance(bob, net.chain) == 0
        assert net.chain.get_transaction(tx.txid) is None
        assert not net.chain.is_spent(tx.vin[0].prevout)

    def test_shorter_branch_is_stored_but_inactive(self, miner_key):
        shared = Blockchain(ChainParams.regtest())
        mine(shared, miner_key, 3)
        rival = Blockchain(ChainParams.regtest())
        rival_blocks = mine(
            rival, Wallet.from_seed(b"loser").key_hash, 2, extra_nonce_base=99
        )
        for block in rival_blocks:
            shared.add_block(block)
        assert shared.height == 3
        assert shared.has_block(rival_blocks[-1].hash)
        assert not shared.in_active_chain(rival_blocks[-1].hash)


def funded_net(seed):
    net = RegtestNetwork()
    wallet = Wallet.from_seed(seed)
    net.fund_wallet(wallet, blocks=2)
    return net, wallet


def block_on_tip(chain, miner_key, spends, extra_nonce=0):
    """A mined block on ``chain``'s tip carrying ``spends``, not submitted."""
    miner = Miner(chain, miner_key)
    template = miner.assemble(extra_nonce=extra_nonce)
    return miner.grind(
        build_block(
            template.header.prev_hash,
            [template.txs[0], *spends],
            template.header.timestamp,
            template.header.bits,
        )
    )


def double_spend(chain, wallet):
    """Two different transactions spending the same outpoint."""
    first, second = (
        wallet.create_transaction(
            chain, [TxOut(COIN + i, p2pkh_script(wallet.key_hash))], fee=1000
        )
        for i in range(2)
    )
    assert first.txid != second.txid
    assert first.vin[0].prevout == second.vin[0].prevout
    return [first, second]


def table_state(chain):
    utxos = chain.utxos
    return (
        chain.tip.block.hash,
        len(utxos),
        utxos.serialized_size(),
        utxos.snapshot(),
    )


class TestRejectedAtConnect:
    """A block that fails contextual validation changes nothing."""

    def test_bad_signature_block_leaves_the_pre_block_tip(self, miner_key):
        net, alice = funded_net(b"badsig-alice")
        tx = alice.create_transaction(
            net.chain, [TxOut(COIN, p2pkh_script(miner_key))], fee=1000
        )
        elements = tx.vin[0].script_sig.elements
        sig = bytearray(elements[0])
        sig[10] ^= 0x01
        bad = tx.with_input_script(0, Script([bytes(sig), *elements[1:]]))
        before = table_state(net.chain)
        with pytest.raises(
            ValidationError, match="^script validation failed on input 0$"
        ):
            net.chain.add_block(block_on_tip(net.chain, miner_key, [bad]))
        assert table_state(net.chain) == before

    def test_double_spend_across_transactions_is_a_validation_error(
        self, miner_key
    ):
        net, alice = funded_net(b"dspend-alice")
        chain = net.chain
        block = block_on_tip(chain, miner_key, double_spend(chain, alice))
        before = table_state(chain)
        with pytest.raises(ValidationError, match="missing or spent input"):
            chain.add_block(block)
        assert table_state(chain) == before
        assert chain.entry(block.hash).invalid
        miner = Miner(chain, miner_key)
        child = miner.grind(
            build_block(
                block.hash,
                [miner.make_coinbase(chain.height + 2, fees=0)],
                block.header.timestamp + 1,
                block.header.bits,
            )
        )
        with pytest.raises(ValidationError, match="parent block is invalid"):
            chain.add_block(child)
        assert table_state(chain) == before

    def test_double_spend_heading_a_heavier_branch_restores_the_old_chain(
        self, miner_key
    ):
        net, alice = funded_net(b"dspend-reorg-alice")
        chain = net.chain
        rival = Blockchain(ChainParams.regtest())
        for block in chain.export_active():
            rival.add_block(block)
        # The active chain moves on two blocks, one of them a payment.
        net.send(
            alice.create_transaction(
                chain, [TxOut(2 * COIN, p2pkh_script(miner_key))], fee=1000
            )
        )
        net.confirm(2)
        before = table_state(chain)
        # The side branch: two honest blocks (equal work, so stored but
        # inactive), then the double-spend block that would tip the scale.
        rival_key = Wallet.from_seed(b"dspend-rival").key_hash
        side = mine(rival, rival_key, 2, extra_nonce_base=7000)
        head = block_on_tip(rival, rival_key, double_spend(rival, alice))
        for block in side:
            assert not chain.add_block(block)
        with pytest.raises(ValidationError, match="missing or spent input"):
            chain.add_block(head)
        assert table_state(chain) == before
        assert chain.entry(head.hash).invalid
        assert not any(chain.in_active_chain(b.hash) for b in side)
        # The restored chain still extends.
        mine(chain, miner_key, 1, extra_nonce_base=9000)
        assert chain.height == rival.height + 1
