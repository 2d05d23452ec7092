"""Mining: block assembly and nonce grinding (paper §1, items 3–4).

"Parties are incentivized to create new blocks ... by the privilege to
generate new bitcoins and collect transaction fees."  The miner assembles a
template from the mempool (fee-rate order), adds a coinbase claiming subsidy
plus fees, and grinds the nonce until the header hash meets the target.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.bitcoin.block import Block, MAX_BLOCK_SIZE, build_block
from repro.bitcoin.chain import Blockchain, block_subsidy
from repro.bitcoin.mempool import Mempool
from repro.bitcoin.script import Op, Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import OutPoint, Transaction, TxIn, TxOut

__all__ = ["Miner", "MiningError", "block_subsidy"]


class MiningError(Exception):
    """Raised when a block cannot be assembled or mined."""


@dataclass
class Miner:
    """Assembles and mines blocks on top of a chain."""

    chain: Blockchain
    coinbase_key_hash: bytes
    max_nonce: int = 2**32

    def make_coinbase(self, height: int, fees: int, extra_nonce: int = 0) -> Transaction:
        """The subsidy-claiming transaction; extra_nonce uniquifies txids."""
        tag = Script([height.to_bytes(4, "little"), extra_nonce.to_bytes(4, "little")])
        return Transaction(
            vin=[TxIn(OutPoint.null(), tag)],
            vout=[TxOut(block_subsidy(height) + fees, p2pkh_script(self.coinbase_key_hash))],
        )

    def assemble(
        self,
        mempool: Mempool | None = None,
        timestamp: int | None = None,
        extra_nonce: int = 0,
    ) -> Block:
        """Build an unmined block template on the current tip."""
        tip = self.chain.tip
        height = tip.height + 1
        txs: list[Transaction] = []
        fees = 0
        size_budget = MAX_BLOCK_SIZE - 1_000
        if mempool is not None:
            for entry in mempool.transactions():
                if size_budget - entry.size < 0:
                    continue
                txs.append(entry.tx)
                fees += entry.fee
                size_budget -= entry.size
        coinbase = self.make_coinbase(height, fees, extra_nonce)
        if timestamp is None:
            timestamp = self.chain.median_time_past() + 1
        bits = self.chain.required_bits(tip.block.hash)
        block = build_block(
            prev_hash=tip.block.hash,
            txs=[coinbase] + txs,
            timestamp=timestamp,
            bits=bits,
        )
        if obs.ENABLED:
            obs.inc("miner.template_txs_total", len(block.txs))
        return block

    def grind(self, block: Block) -> Block:
        """Brute-force the nonce until the header meets its target.

        Paper fn. 3: "no strategy for hitting the target better than brute
        force is known."
        """
        header = block.header
        for nonce in range(self.max_nonce):
            candidate = header.with_nonce(nonce)
            if candidate.meets_target():
                # Count attempts once on success rather than per iteration,
                # keeping the grind loop itself observability-free.
                if obs.ENABLED:
                    obs.inc("miner.hash_attempts_total", nonce + 1)
                return Block(candidate, block.txs)
        if obs.ENABLED:
            obs.inc("miner.hash_attempts_total", self.max_nonce)
        raise MiningError("nonce space exhausted; lower the difficulty")

    def mine_block(
        self,
        mempool: Mempool | None = None,
        timestamp: int | None = None,
        extra_nonce: int = 0,
    ) -> Block:
        """Assemble, grind, and submit one block; returns the accepted block."""
        block = self.grind(self.assemble(mempool, timestamp, extra_nonce))
        self.chain.add_block(block)
        if mempool is not None:
            mempool.remove_confirmed(list(block.txs))
        return block
