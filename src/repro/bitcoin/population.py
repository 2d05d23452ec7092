"""Synthetic user populations for swarm-scale simulation.

The paper's setting is a *population* of mutually-untrusting principals
committing to affine contracts over a shared chain — not the handful of
named wallets the small experiments use.  This module generates that
population synthetically, at the million-user scale the swarm benchmarks
need, without holding a million key pairs in memory:

* **Power-law activity** — real transaction-issuing activity is heavily
  skewed (a few exchanges and services dominate; most users transact
  rarely).  Wallet ``i`` gets weight ``(i + 1) ** -alpha``; senders are
  drawn by binary search over the cumulative weights, so a draw costs
  O(log n) regardless of population size.
* **Bursty arrivals** — submissions cluster (market moves, settlement
  batches) rather than arriving as a flat Poisson stream.  Cluster starts
  are exponential with rate ``burst_rate``; each cluster holds a
  geometric number of events (mean ``burst_mean``) spread uniformly over
  ``burst_spread`` seconds.
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
from repro.bitcoin.mempool import Mempool
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

#: Geometric cluster sizes are capped so one unlucky draw cannot stall
#: event generation (P(hitting the cap) is astronomically small for any
#: sane ``burst_mean``).
MAX_BURST = 10_000


@dataclass(frozen=True)
class PopulationConfig:
    """Shape of a synthetic population and its submission process."""

    wallets: int = 1_000_000  # population size (distinct potential senders)
    seed: int = 0
    alpha: float = 1.16  # power-law exponent (~80/20 at 1.16)
    burst_rate: float = 1.0 / 120.0  # cluster arrivals per simulated second
    burst_mean: float = 6.0  # mean events per cluster (geometric)
    burst_spread: float = 45.0  # seconds one cluster's events span

    def __post_init__(self) -> None:
        if self.wallets <= 0:
            raise ValueError("population needs at least one wallet")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.burst_rate <= 0 or self.burst_mean < 1 or self.burst_spread < 0:
            raise ValueError("burst parameters out of range")


class SyntheticPopulation:
    """A seeded population of power-law-active synthetic users.

    The cumulative weight table is built once (an ``array('d')``, ~8 bytes
    per wallet, so a million users cost ~8 MB); every other operation is
    O(log n) or O(events).
    """

    def __init__(self, config: PopulationConfig):
        self.config = config
        weights = (
            (i + 1) ** -config.alpha for i in range(config.wallets)
        )
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

        The stream is a function of (seed, population shape, window)
        alone: the same call always yields the identical schedule, and
        disjoint windows are decorrelated.
        """
        cfg = self.config
        rng = derive_rng(
            "population-events",
            cfg.seed,
            cfg.wallets,
            cfg.alpha,
            start,
            duration,
        )
        end = start + duration
        out: list[tuple[float, int]] = []
        t = start
        while True:
            t += rng.expovariate(cfg.burst_rate)
            if t >= end:
                break
            size = 1
            while rng.random() > 1.0 / cfg.burst_mean and size < MAX_BURST:
                size += 1
            for _ in range(size):
                at = t + rng.uniform(0.0, cfg.burst_spread)
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


def fund_wallets(
    key_hashes: list[bytes],
    value: int = 50_000,
    fee: int = 10_000,
    params: ChainParams | None = None,
    batch: int = 500,
) -> list[Block]:
    """A scratch-chain block sequence crediting each key hash one P2PKH
    output of ``value`` satoshis.

    A bank wallet mines itself ``COINBASE_MATURITY`` + enough subsidy,
    then fans out to the population keys in ``batch``-output transactions
    (one mature coinbase funds each).  Returns the full active chain —
    feed every simulated node these blocks before the swarm starts, so
    all of them boot at the same funded tip.  Repeat a key hash to give
    that wallet several independent outputs (one per planned spend).

    Deterministic: no RNG anywhere, timestamps follow median-time-past.
    """
    params = params or sim_chain_params()
    chain = Blockchain(params)
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
        key_hashes[i : i + batch] for i in range(0, len(key_hashes), batch)
    ]
    for _ in range(COINBASE_MATURITY + len(groups)):
        mine()

    spent: set = set()
    for group in groups:
        outputs = [TxOut(value, p2pkh_script(kh)) for kh in group]
        tx = bank.create_transaction(chain, outputs, fee=fee, exclude=spent)
        floor = mempool.min_fee_rate * len(tx.serialize())
        if fee < floor:
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
