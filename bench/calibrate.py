"""A fixed kernel that measures how fast the machine is right now.

The sandbox this benchmark runs in shares its processors: the same code
reads 20 to 40 % slower for seconds or minutes at a time, and ten runs of
one commit spread wider than any change one would want to detect.  The
harness therefore runs this kernel immediately before and after every
round and every set-up, and scales the round's wall times by
``REFERENCE_S / measured``: results are in *reference-machine* seconds.
Over ten runs per workload this cut the mean spread (inter-quartile
range over median) of the end-to-end metrics from 13 % to 6 %, and the
worst from 44 % to 15 %.

The kernel belongs to the benchmark and calls nothing under ``src/``, so
no change to the program can move it.  Its mix follows the program's:
interpreter-bound object and dict traffic, 256-bit modular arithmetic,
and hashing of small buffers.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

# The kernel's mean time on the machine the first baseline was taken on,
# in a quiet phase.  Only ratios to it are used, so its exact value sets
# the unit, not the comparison.
REFERENCE_S = 0.0125

_P = 2**256 - 2**32 - 977


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y


def kernel() -> float:
    """Run the fixed work once; returns its wall seconds."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    points = [_Point(i, i + 1) for i in range(64)]
    for i in range(20_000):
        point = points[i & 63]
        acc += point.x * 3 + point.y
        table[i & 1023] = acc
        if acc & 1:
            acc ^= table.get(i & 511, 0)
    x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    y = x ^ 0xFFFFF
    for i in range(15_000):
        x = (x * y + i) % _P
    block = b"x" * 64
    for _ in range(4_000):
        block = hashlib.sha256(block).digest() + block[:32]
    return perf_counter() - start


class Speed:
    """Kernel samples taken around one measured interval."""

    def __init__(self, samples_per_side: int):
        self.per_side = samples_per_side
        self.samples: list[float] = []

    def __enter__(self) -> "Speed":
        self.samples += [kernel() for _ in range(self.per_side)]
        return self

    def __exit__(self, *_exc) -> bool:
        self.samples += [kernel() for _ in range(self.per_side)]
        return False

    @property
    def factor(self) -> float:
        """Multiply a wall time by this to express it in reference-machine
        seconds (below 1 while the machine is slower than the reference)."""
        return REFERENCE_S / statistics.mean(self.samples)
