"""Capped exponential backoff with seeded jitter.

One tiny, dependency-free home for the retry-delay math shared by the
P2P catch-up sync (:mod:`repro.bitcoin.sync`) and the verification
service's client (:mod:`repro.service.client`).  Two failure patterns
motivate it, both surveyed at length for layer-2 Bitcoin protocols:

* **unbounded exponential growth** — a plain ``base * FACTOR**n`` retry
  schedule quickly grows past any useful timeout, so the delay is
  clamped at ``cap``;
* **retry synchronization** — peers that observed the same failure at
  the same moment retry in lockstep, re-creating the overload that
  failed them ("request storms").  Multiplicative jitter drawn from a
  *seeded* RNG decorrelates them while keeping every run reproducible.

Jitter is multiplicative-around-the-nominal (``delay * U[1-JITTER,
1+JITTER]``, drawn on every call) rather than AWS-style full jitter
(``U[0, delay]``): these delays double as *timeouts*, and a near-zero
timeout would manufacture spurious failures.
"""

from __future__ import annotations

import random

__all__ = ["FACTOR", "JITTER", "backoff_delay", "derive_rng"]

FACTOR = 2.0  # delay multiplier per retry
JITTER = 0.2  # ± fraction of the delay


def backoff_delay(
    attempt: int, *, base: float, cap: float, rng: random.Random
) -> float:
    """The delay (or timeout) to use for retry ``attempt`` (1-based).

    ``min(cap, base * FACTOR**(attempt-1))``, jittered by a factor drawn
    from ``rng`` uniformly in ``[1 - JITTER, 1 + JITTER]``.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    delay = min(cap, base * FACTOR ** (attempt - 1))
    delay *= rng.uniform(1.0 - JITTER, 1.0 + JITTER)
    return delay


def derive_rng(*parts: object) -> random.Random:
    """A deterministic RNG derived from the given identity parts.

    Seeding goes through a string (``random.seed`` hashes str seeds with
    SHA-512), **not** a tuple — tuple seeding falls back to ``hash()``,
    which is randomized per process for strings and would silently break
    cross-run reproducibility.  Distinct part tuples give decorrelated
    streams, which is exactly what per-(node, peer) retry jitter needs:
    every peer backs off on its own schedule, but the same seed always
    reproduces the same storm.
    """
    return random.Random(":".join(repr(part) for part in parts))
