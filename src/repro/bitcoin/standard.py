"""Standard script schemas and relay policy (paper §3.3).

The Bitcoin network "makes most scripts unavailable for normal use": only a
small number of schemas are *standard*, and nodes refuse to relay anything
else.  Typecoin's metadata embedding therefore must use a standard schema —
the 1-of-2 multisig trick — rather than arbitrary scripts.  This module
defines the standard templates and the classifier the mempool policy uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.bitcoin.script import Op, Script

MAX_OP_RETURN_PAYLOAD = 80
# Satoshis; a spendable output below this is not relayed.  The one relay
# dust limit: the mempool refuses under it, the wallet folds change under
# it into the fee, and a bogus metadata output burns exactly it.
DUST_THRESHOLD = 546


class ScriptType(enum.Enum):
    """The standard output-script shapes (plus NONSTANDARD)."""

    P2PK = "pubkey"
    P2PKH = "pubkeyhash"
    MULTISIG = "multisig"
    OP_RETURN = "nulldata"
    NONSTANDARD = "nonstandard"


def p2pk_script(pubkey: bytes) -> Script:
    """Pay directly to a public key: ``<pubkey> OP_CHECKSIG``."""
    return Script([pubkey, Op.OP_CHECKSIG])


def p2pkh_script(key_hash: bytes) -> Script:
    """Pay to a public-key hash (the everyday Bitcoin output)."""
    if len(key_hash) != 20:
        raise ValueError("P2PKH requires a 20-byte key hash")
    return Script([
        Op.OP_DUP, Op.OP_HASH160, key_hash, Op.OP_EQUALVERIFY, Op.OP_CHECKSIG,
    ])


_SMALL = [
    Op.OP_1, Op.OP_2, Op.OP_3, Op.OP_4, Op.OP_5, Op.OP_6, Op.OP_7, Op.OP_8,
    Op.OP_9, Op.OP_10, Op.OP_11, Op.OP_12, Op.OP_13, Op.OP_14, Op.OP_15,
    Op.OP_16,
]


def multisig_script(m: int, pubkeys: list[bytes]) -> Script:
    """BIP-11 m-of-n multisig: ``m <key>... n OP_CHECKMULTISIG``.

    Standardness caps n at 3 on the relay network, which is exactly enough
    for Typecoin's 1-of-2 metadata embedding and 2-of-3 escrow (paper §3.3,
    §7).
    """
    n = len(pubkeys)
    if not 1 <= m <= n <= 3:
        raise ValueError("standard multisig requires 1 <= m <= n <= 3")
    return Script([_SMALL[m - 1], *pubkeys, _SMALL[n - 1], Op.OP_CHECKMULTISIG])


def op_return_script(payload: bytes) -> Script:
    """Provably unspendable data carrier: ``OP_RETURN <payload>``.

    Included because it is the modern metadata channel; the paper predates
    its general availability and uses 1-of-2 multisig instead (§3.3).
    """
    if len(payload) > MAX_OP_RETURN_PAYLOAD:
        raise ValueError("OP_RETURN payload exceeds 80 bytes")
    return Script([Op.OP_RETURN, payload])


@dataclass(frozen=True)
class Classified:
    """Result of classifying an output script."""

    type: ScriptType
    # For P2PK/MULTISIG: the public keys; for P2PKH: the key hash as the
    # single entry; for OP_RETURN: the payload.
    data: tuple[bytes, ...] = ()
    required_sigs: int = 0


def _is_pubkey_shaped(data: bytes) -> bool:
    return (len(data) == 33 and data[0] in (2, 3)) or (
        len(data) == 65 and data[0] == 4
    )


def classify(script: Script) -> Classified:
    """Decide which standard schema (if any) an output script matches.

    A pure function of an immutable script, so it is answered once per
    script and kept on it (``Script._classified``)."""
    return script._classified


def _classify(script: Script) -> Classified:
    els = script.elements
    if (
        len(els) == 2
        and isinstance(els[0], bytes)
        and _is_pubkey_shaped(els[0])
        and els[1] == Op.OP_CHECKSIG
    ):
        return Classified(ScriptType.P2PK, (els[0],), required_sigs=1)
    if (
        len(els) == 5
        and els[0] == Op.OP_DUP
        and els[1] == Op.OP_HASH160
        and isinstance(els[2], bytes)
        and len(els[2]) == 20
        and els[3] == Op.OP_EQUALVERIFY
        and els[4] == Op.OP_CHECKSIG
    ):
        return Classified(ScriptType.P2PKH, (els[2],), required_sigs=1)
    if (
        len(els) >= 4
        and els[0] in _SMALL
        and els[-2] in _SMALL
        and els[-1] == Op.OP_CHECKMULTISIG
    ):
        m = _SMALL.index(els[0]) + 1  # type: ignore[arg-type]
        n = _SMALL.index(els[-2]) + 1  # type: ignore[arg-type]
        keys = els[1:-2]
        if (
            n == len(keys)
            and 1 <= m <= n <= 3
            and all(isinstance(k, bytes) and _is_pubkey_shaped(k) for k in keys)
        ):
            return Classified(
                ScriptType.MULTISIG, tuple(keys), required_sigs=m  # type: ignore[arg-type]
            )
    if (
        len(els) == 2
        and els[0] == Op.OP_RETURN
        and isinstance(els[1], bytes)
        and len(els[1]) <= MAX_OP_RETURN_PAYLOAD
    ):
        return Classified(ScriptType.OP_RETURN, (els[1],))
    return Classified(ScriptType.NONSTANDARD)


def is_standard(script: Script) -> bool:
    """Relay policy: would a default node forward an output paying this?"""
    return classify(script).type is not ScriptType.NONSTANDARD
