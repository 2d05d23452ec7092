"""Bitcoin-style Merkle trees.

Block headers commit to their transactions through a Merkle root.  Bitcoin's
quirk of duplicating the last node at odd levels is reproduced faithfully.
"""

from __future__ import annotations

from repro.crypto.hashing import sha256d


def merkle_root(leaves: list[bytes]) -> bytes:
    """Compute the Merkle root of ``leaves`` (txids, already hashed).

    The root of an empty list is 32 zero bytes (only the genesis-construction
    code ever asks for it).
    """
    if not leaves:
        return b"\x00" * 32
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]

