"""The Bitcoin overlay: carrying Typecoin transactions on Bitcoin (§3, §3.3).

The full Typecoin transaction is hashed and the hash embedded into its
carrier Bitcoin transaction.  Since Bitcoin has no metadata field and
non-standard scripts are not relayed, the hash travels as the second "public
key" of a standard 1-of-2 multisig output — spendable with the single real
key, so the unspent-txout table can eventually be garbage collected.

Two rejected strategies are also implemented so experiment E4 can measure
why the paper rejects them: the bogus P2PK output (permanent UTXO
deadweight) and, for comparison with the post-paper world, OP_RETURN.
"""

from __future__ import annotations

import enum

from repro.bitcoin.chain import Blockchain
from repro.bitcoin.script import Script
from repro.bitcoin.standard import (
    DUST_THRESHOLD,
    ScriptType,
    classify,
    multisig_script,
    op_return_script,
    p2pk_script,
    p2pkh_script,
)
from repro.bitcoin.transaction import OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.wallet import Spendable, Wallet, WalletError
from repro.core.transaction import TypecoinTransaction

DUST_SAFE_AMOUNT = 600  # §3: "all the bitcoin amounts will be very small"
BOGUS_OUTPUT_AMOUNT = DUST_THRESHOLD  # the minimum a bogus output must burn


class OverlayError(Exception):
    """The carrier transaction cannot be built or does not correspond."""


class EmbeddingStrategy(enum.Enum):
    """How the Typecoin hash is embedded into the carrier (§3.3)."""

    MULTISIG_1OF2 = "multisig-1of2"  # the paper's choice
    BOGUS_OUTPUT = "bogus-output"  # rejected: permanent UTXO deadweight
    OP_RETURN = "op-return"  # modern alternative, for comparison


def metadata_pubkey(txn_hash: bytes) -> bytes:
    """Dress a 32-byte hash as a compressed public key (0x02 ‖ hash)."""
    if len(txn_hash) != 32:
        raise OverlayError("metadata must be a 32-byte hash")
    return b"\x02" + txn_hash


def output_script(
    recipient_pubkey: bytes,
    txn_hash: bytes,
    strategy: EmbeddingStrategy = EmbeddingStrategy.MULTISIG_1OF2,
) -> Script:
    """The carrier lock for one Typecoin output."""
    if strategy is EmbeddingStrategy.MULTISIG_1OF2:
        return multisig_script(1, [recipient_pubkey, metadata_pubkey(txn_hash)])
    # The other strategies put the metadata elsewhere; outputs lock to the
    # recipient's key hash.
    from repro.crypto.hashing import hash160

    return p2pkh_script(hash160(recipient_pubkey))


def build_carrier(
    chain: Blockchain,
    wallet: Wallet,
    txn: TypecoinTransaction,
    fee: int,
    strategy: EmbeddingStrategy = EmbeddingStrategy.MULTISIG_1OF2,
    exclude: set[OutPoint] | None = None,
    script_overrides: dict[int, Script] | None = None,
    skip_sign: set[OutPoint] | None = None,
) -> Transaction:
    """Build and sign the Bitcoin transaction carrying ``txn``.

    Carrier layout:

    * inputs 0..m-1 — exactly the Typecoin inputs' outpoints (the wallet
      must hold the real keys of their 1-of-2 locks);
    * further inputs — trivial type-1 funding inputs from the wallet
      (§3.1: "bring a transaction into balance, or ... pay the fee");
    * outputs 0..n-1 — one per Typecoin output, value = its amount;
    * optional metadata output (bogus/OP_RETURN strategies);
    * optional change output (type 1, back to the wallet).
    """
    txn_hash = txn.hash

    spendables: list[Spendable] = []
    for inp in txn.inputs:
        outpoint = OutPoint(inp.txid, inp.index)
        entry = chain.utxos.get(outpoint)
        if entry is None:
            raise OverlayError(f"carrier input {outpoint} is missing or spent")
        if entry.output.value != inp.amount:
            raise OverlayError(
                f"carrier input {outpoint} holds {entry.output.value} sat,"
                f" transaction declares {inp.amount}"
            )
        spendables.append(
            Spendable(outpoint, entry.output, entry.height, entry.is_coinbase)
        )

    overrides = script_overrides or {}
    outputs = [
        TxOut(
            out.amount,
            overrides.get(
                index, output_script(out.recipient_pubkey, txn_hash, strategy)
            ),
        )
        for index, out in enumerate(txn.outputs)
    ]
    if overrides and strategy is EmbeddingStrategy.MULTISIG_1OF2:
        # Overridden scripts (e.g. 2-of-3 escrow locks) may leave no output
        # carrying the metadata key; ensure the hash is embedded somewhere.
        embedded = any(
            carrier_embeds_hash(
                Transaction([TxIn(OutPoint(b"\x00" * 32, 0))], [out]), txn_hash
            )
            for out in outputs
        )
        if not embedded:
            outputs.append(
                TxOut(
                    DUST_SAFE_AMOUNT,
                    multisig_script(
                        1,
                        [wallet.default_key.public.encoded, metadata_pubkey(txn_hash)],
                    ),
                )
            )
    if strategy is EmbeddingStrategy.BOGUS_OUTPUT:
        outputs.append(
            TxOut(BOGUS_OUTPUT_AMOUNT, p2pk_script(metadata_pubkey(txn_hash)))
        )
    elif strategy is EmbeddingStrategy.OP_RETURN:
        outputs.append(TxOut(0, op_return_script(txn_hash)))

    try:
        return wallet.create_transaction(
            chain,
            outputs,
            fee=fee,
            extra_inputs=spendables,
            exclude=exclude,
            skip_sign=skip_sign,
        )
    except WalletError as exc:
        raise OverlayError(str(exc)) from exc


def carrier_embeds_hash(
    carrier: Transaction,
    txn_hash: bytes,
    strategy: EmbeddingStrategy | None = None,
) -> bool:
    """Does the carrier commit to this Typecoin transaction hash?

    With no strategy given, all three embeddings are recognized.
    """
    meta_key = metadata_pubkey(txn_hash)
    for out in carrier.vout:
        info = classify(out.script_pubkey)
        if strategy in (None, EmbeddingStrategy.MULTISIG_1OF2):
            if info.type is ScriptType.MULTISIG and meta_key in info.data:
                return True
        if strategy in (None, EmbeddingStrategy.BOGUS_OUTPUT):
            if info.type is ScriptType.P2PK and info.data == (meta_key,):
                return True
        if strategy in (None, EmbeddingStrategy.OP_RETURN):
            if info.type is ScriptType.OP_RETURN and info.data == (txn_hash,):
                return True
    return False


def check_carrier_correspondence(
    carrier: Transaction,
    txn: TypecoinTransaction,
) -> None:
    """Verify carrier ↔ Typecoin structural agreement (§3).

    Bitcoin checks conditions 1–4 of §2 itself; here we check what it
    cannot: the hash embedding, that the carrier spends exactly the declared
    Typecoin inputs (in order, as its first inputs), and that each Typecoin
    output is realized by the matching carrier output — right value, locked
    to the declared recipient.
    """
    if not carrier_embeds_hash(carrier, txn.hash):
        raise OverlayError("carrier does not embed the transaction hash")
    if len(carrier.vin) < len(txn.inputs):
        raise OverlayError("carrier has fewer inputs than the Typecoin level")
    for position, inp in enumerate(txn.inputs):
        prevout = carrier.vin[position].prevout
        if prevout != OutPoint(inp.txid, inp.index):
            raise OverlayError(
                f"carrier input {position} spends {prevout}, expected"
                f" {inp.txid[:8].hex()}….{inp.index}"
            )
    if len(carrier.vout) < len(txn.outputs):
        raise OverlayError("carrier has fewer outputs than the Typecoin level")
    for position, out in enumerate(txn.outputs):
        txout = carrier.vout[position]
        if txout.value != out.amount:
            raise OverlayError(
                f"carrier output {position} carries {txout.value} sat,"
                f" Typecoin declares {out.amount}"
            )
        if not _locked_to(txout.script_pubkey, out.recipient_pubkey):
            raise OverlayError(
                f"carrier output {position} is not locked to the declared"
                " recipient"
            )


def _locked_to(script: Script, recipient_pubkey: bytes) -> bool:
    from repro.crypto.hashing import hash160

    info = classify(script)
    if info.type is ScriptType.MULTISIG:
        return recipient_pubkey in info.data
    if info.type is ScriptType.P2PKH:
        return info.data == (hash160(recipient_pubkey),)
    if info.type is ScriptType.P2PK:
        return info.data == (recipient_pubkey,)
    return False
