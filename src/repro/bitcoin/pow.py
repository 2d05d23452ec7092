"""Proof of work: compact targets, work accounting, difficulty retargeting.

Paper §1: "the block's cryptographic hash, viewed as an integer, must be less
than a given target" (fn. 3), and "Bitcoin dynamically adjusts the mining
difficulty so that new blocks are always generated approximately every ten
minutes, even as the computational power of the network changes" (fn. 4).
Experiment E2 exercises the retarget rule directly.
"""

from __future__ import annotations

from repro import obs

BLOCK_INTERVAL_TARGET = 600  # seconds: ten minutes
RETARGET_WINDOW = 2016  # blocks per difficulty period (two weeks)
MAX_ADJUSTMENT_FACTOR = 4  # retarget clamps, as in Bitcoin

# An easy ceiling target for simulated networks (regtest-like).
REGTEST_TARGET = 2**252
# Mainnet-style maximum target (difficulty 1).
MAX_TARGET = 0xFFFF * 2 ** (8 * (0x1D - 3))


def target_to_bits(target: int) -> int:
    """Encode a target integer into Bitcoin's compact 'bits' form."""
    if target <= 0:
        raise ValueError("target must be positive")
    size = (target.bit_length() + 7) // 8
    if size <= 3:
        mantissa = target << (8 * (3 - size))
    else:
        mantissa = target >> (8 * (size - 3))
    # Compact form is sign-magnitude: avoid setting the sign bit.
    if mantissa & 0x800000:
        mantissa >>= 8
        size += 1
    return (size << 24) | mantissa


def bits_to_target(bits: int) -> int:
    """Decode the compact 'bits' form back into a target integer."""
    size = bits >> 24
    mantissa = bits & 0x007FFFFF
    if bits & 0x00800000:
        raise ValueError("negative target")
    if size <= 3:
        return mantissa >> (8 * (3 - size))
    return mantissa << (8 * (size - 3))


def check_proof_of_work(block_hash: bytes, bits: int) -> bool:
    """Is the hash, viewed as a (little-endian) integer, below the target?"""
    return int.from_bytes(block_hash, "little") < bits_to_target(bits)


def block_work(bits: int) -> int:
    """Expected hashes to find a block at this target (chain-work unit).

    work = 2²⁵⁶ / (target + 1), as Bitcoin Core computes it.
    """
    return 2**256 // (bits_to_target(bits) + 1)


def next_target(
    current_target: int,
    first_block_time: int,
    last_block_time: int,
    max_target: int = MAX_TARGET,
    window: int = RETARGET_WINDOW,
    interval: int = BLOCK_INTERVAL_TARGET,
) -> int:
    """Retarget rule: scale by actual/expected timespan, clamped to 4x.

    ``first_block_time`` is the timestamp of the first block of the closing
    period and ``last_block_time`` that of its final block.
    """
    expected = (window - 1) * interval
    actual = last_block_time - first_block_time
    actual = max(expected // MAX_ADJUSTMENT_FACTOR, actual)
    actual = min(expected * MAX_ADJUSTMENT_FACTOR, actual)
    new_target = min(current_target * actual // expected, max_target)
    if obs.ENABLED:
        # One event per retarget computation (the chain calls this once per
        # window boundary per validated header).
        obs.inc("pow.retargets_total")
        obs.emit(
            "pow.retarget",
            old_target=f"{current_target:x}",
            new_target=f"{new_target:x}",
            ratio=new_target / current_target,
        )
    return new_target

