"""Synthetic user populations for swarm-scale simulation.

The paper's setting is a *population* of mutually-untrusting principals
committing to affine contracts over a shared chain — not the handful of
named wallets the small experiments use.  This module generates that
population synthetically, at the million-user scale the swarm benchmarks
need, without holding a million key pairs in memory:

* **Power-law activity** — real transaction-issuing activity is heavily
  skewed (a few exchanges and services dominate; most users transact
  rarely).  Wallet ``i`` gets weight ``(i + 1) ** -ALPHA``; senders are
  drawn by binary search over the cumulative weights, so a draw costs
  O(log n) regardless of population size.
* **Bursty arrivals** — submissions cluster (market moves, settlement
  batches) rather than arriving as a flat Poisson stream.  Cluster starts
  are exponential with rate ``BURST_RATE``; each cluster holds a
  geometric number of events (mean ``BURST_MEAN``) spread uniformly over
  ``BURST_SPREAD`` seconds.
* **Deterministic streams** — every stream is derived via
  :func:`repro.backoff.derive_rng` from the population seed plus the
  event window, so the same configuration always reproduces the same
  trace byte for byte (:meth:`SyntheticPopulation.trace_digest` pins
  exactly that).

The population is pure schedule: it yields ``(time, wallet)`` events and
never touches a simulation's RNG.  Mapping events to signed transactions
is the consumer's job; :func:`fund_wallets` builds the scratch-chain
prefix that gives the active (transacting) subset real P2PKH outputs to
spend, under the same chain parameters the simulator's nodes boot with.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from random import Random

from repro.backoff import derive_rng
from repro.bitcoin.block import Block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.mempool import MIN_FEE_RATE, Mempool
from repro.bitcoin.miner import Miner
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import TxOut
from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.bitcoin.wallet import Wallet

__all__ = [
    "PopulationConfig",
    "SyntheticPopulation",
    "fund_wallets",
    "sim_chain_params",
]

ALPHA = 1.16  # power-law exponent (~80/20 at 1.16)
BURST_RATE = 1.0 / 120.0  # cluster arrivals per simulated second
BURST_MEAN = 6.0  # mean events per cluster (geometric)
BURST_SPREAD = 45.0  # seconds one cluster's events span

#: Geometric cluster sizes are capped so one unlucky draw cannot stall
#: event generation (P(hitting the cap) is astronomically small at
#: ``BURST_MEAN``).
MAX_BURST = 10_000

# What fund_wallets credits each key hash, the flat fee of one fan-out
# transaction, and how many outputs one fan-out pays.
FUND_VALUE = 50_000
FUND_FEE = 10_000
FUND_BATCH = 500


@dataclass(frozen=True)
class PopulationConfig:
    """Size and seed of a synthetic population."""

    wallets: int = 1_000_000  # population size (distinct potential senders)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.wallets <= 0:
            raise ValueError("population needs at least one wallet")


class SyntheticPopulation:
    """A seeded population of power-law-active synthetic users.

    The cumulative weight table is built once (an ``array('d')``, ~8 bytes
    per wallet, so a million users cost ~8 MB); every other operation is
    O(log n) or O(events).
    """

    def __init__(self, config: PopulationConfig):
        self.config = config
        weights = ((i + 1) ** -ALPHA for i in range(config.wallets))
        self._cum = array("d", accumulate(weights))
        self._total = self._cum[-1]

    # -- sampling ------------------------------------------------------

    def pick_wallet(self, rng: Random) -> int:
        """One power-law-weighted sender index, via binary search."""
        return bisect_right(self._cum, rng.random() * self._total)

    # -- the event schedule --------------------------------------------

    def events(self, start: float, duration: float):
        """Yield ``(time, wallet)`` submission events in ``[start, start +
        duration)``, time-ordered.

        The stream is a function of (seed, population size, window)
        alone: the same call always yields the identical schedule, and
        disjoint windows are decorrelated.
        """
        cfg = self.config
        rng = derive_rng(
            "population-events",
            cfg.seed,
            cfg.wallets,
            ALPHA,
            start,
            duration,
        )
        end = start + duration
        out: list[tuple[float, int]] = []
        t = start
        while True:
            t += rng.expovariate(BURST_RATE)
            if t >= end:
                break
            size = 1
            while rng.random() > 1.0 / BURST_MEAN and size < MAX_BURST:
                size += 1
            for _ in range(size):
                at = t + rng.uniform(0.0, BURST_SPREAD)
                wallet = self.pick_wallet(rng)
                if at < end:
                    out.append((at, wallet))
        out.sort()
        yield from out

    def trace(self, start: float, duration: float) -> list[tuple[float, int]]:
        """The full event schedule for one window, as a list."""
        return list(self.events(start, duration))

    def trace_digest(self, start: float, duration: float) -> str:
        """SHA-256 over the struct-packed event schedule — the
        determinism pin: same (config, window) must mean same digest."""
        digest = hashlib.sha256()
        for at, wallet in self.events(start, duration):
            digest.update(struct.pack("<dI", at, wallet))
        return digest.hexdigest()


# ----------------------------------------------------------------------
# Funding the active subset
# ----------------------------------------------------------------------


def sim_chain_params() -> ChainParams:
    """The parameters :func:`repro.bitcoin.network.build_network` defaults
    to — funding blocks must be minted under the same params (same
    genesis) or the simulator's nodes would reject them."""
    return ChainParams(max_target=2**252, retarget_window=2**31, require_pow=False)


def fund_wallets(key_hashes: list[bytes]) -> list[Block]:
    """A scratch-chain block sequence crediting each key hash one P2PKH
    output of ``FUND_VALUE`` satoshis, under :func:`sim_chain_params`.

    A bank wallet mines itself ``COINBASE_MATURITY`` + enough subsidy,
    then fans out to the population keys in transactions of up to
    ``FUND_BATCH`` outputs (one mature coinbase funds each).  Returns the
    full active chain — feed every simulated node these blocks before the
    swarm starts, so all of them boot at the same funded tip.  Repeat a key hash to give
    that wallet several independent outputs (one per planned spend).

    Deterministic: no RNG anywhere, timestamps follow median-time-past.
    """
    chain = Blockchain(sim_chain_params())
    mempool = Mempool(chain)
    bank = Wallet.from_seed(b"population-bank")
    miner = Miner(chain, bank.key_hash)
    extra_nonce = 0

    def mine() -> None:
        nonlocal extra_nonce
        extra_nonce += 1
        block = miner.assemble(
            mempool,
            timestamp=chain.median_time_past() + 1,
            extra_nonce=extra_nonce,
        )
        if not chain.add_block(block):
            raise RuntimeError("funding chain rejected its own block")
        mempool.remove_confirmed(block.txs)

    groups = [
        key_hashes[i : i + FUND_BATCH]
        for i in range(0, len(key_hashes), FUND_BATCH)
    ]
    for _ in range(COINBASE_MATURITY + len(groups)):
        mine()

    spent: set = set()
    for group in groups:
        outputs = [TxOut(FUND_VALUE, p2pkh_script(kh)) for kh in group]
        tx = bank.create_transaction(chain, outputs, fee=FUND_FEE, exclude=spent)
        floor = MIN_FEE_RATE * len(tx.serialize())
        if FUND_FEE < floor:
            # Wide fanouts (hundreds of outputs) outgrow a flat fee; pay
            # double the floor so the rebuilt, slightly larger tx still
            # clears the mempool's rate check.
            tx = bank.create_transaction(
                chain, outputs, fee=2 * floor, exclude=spent
            )
        spent.update(txin.prevout for txin in tx.vin)
        mempool.accept(tx)
    while mempool.transactions():
        mine()
    return chain.export_active()
