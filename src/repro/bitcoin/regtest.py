"""A regtest harness: an instant-mining private network for tests and demos.

Mirrors Bitcoin Core's regtest mode: trivial difficulty, deterministic
genesis, and helpers to generate blocks to a wallet.  Every Typecoin test
and example runs on top of this.
"""

from __future__ import annotations

from repro.bitcoin.block import Block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.mempool import Mempool
from repro.bitcoin.miner import Miner
from repro.bitcoin.transaction import Transaction
from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.bitcoin.wallet import Wallet


class RegtestNetwork:
    """One node, one chain, instant mining."""

    def __init__(self):
        self.chain = Blockchain(ChainParams.regtest())
        self.mempool = Mempool(self.chain)
        self._extra_nonce = 0

    def generate(self, count: int, key_hash: bytes) -> list[Block]:
        """Mine ``count`` blocks paying their coinbases to ``key_hash``.

        Block timestamps advance by one simulated second per block (never
        behind median-time-past), so chain time is a usable clock for
        ``before(t)`` conditions.
        """
        miner = Miner(self.chain, key_hash)
        blocks = []
        for _ in range(count):
            self._extra_nonce += 1
            timestamp = max(
                self.chain.median_time_past() + 1,
                self.chain.tip.block.header.timestamp + 1,
            )
            blocks.append(
                miner.mine_block(
                    self.mempool,
                    timestamp=timestamp,
                    extra_nonce=self._extra_nonce,
                )
            )
        return blocks

    def fund_wallet(self, wallet: Wallet, blocks: int = 1) -> None:
        """Give ``wallet`` spendable coins: mine to it, then mature them."""
        self.generate(blocks, wallet.key_hash)
        # Mature the coinbases by mining a full maturity window to a
        # throwaway key.  The youngest funded coinbase then sits at depth
        # exactly COINBASE_MATURITY — the boundary case: the wallet's
        # (consensus-aligned) rule deems it spendable, and a spend mined
        # in the next block has depth COINBASE_MATURITY + 1 > the window,
        # so consensus agrees.
        burn = Wallet.from_seed(b"regtest-burn")
        self.generate(COINBASE_MATURITY, burn.key_hash)

    def send(self, tx: Transaction) -> bytes:
        """Submit a transaction to the mempool; returns its txid."""
        self.mempool.accept(tx)
        return tx.txid

    def confirm(self, blocks: int = 1) -> list[Block]:
        """Mine blocks (to a throwaway key) so pending transactions confirm."""
        burn = Wallet.from_seed(b"regtest-burn")
        return self.generate(blocks, burn.key_hash)
