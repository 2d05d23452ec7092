"""A Bitcoin wallet: keys, spendable-output tracking, signing (paper §3.1).

Typecoin clients need ordinary bitcoins to carry their transactions ("In a
typical Typecoin transaction, all the bitcoin amounts will be very small"),
so the wallet supports small-value coin selection, change outputs, and
signing of both P2PKH and m-of-n multisig inputs — the latter being how
Typecoin metadata outputs (1-of-2) and escrow outputs (2-of-3) are unlocked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitcoin.chain import Blockchain
from repro.bitcoin.script import Op, Script
from repro.bitcoin.sighash import SigHashType, signature_hash
from repro.bitcoin.standard import (
    DUST_THRESHOLD,
    ScriptType,
    classify,
    p2pkh_script,
)
from repro.bitcoin.transaction import OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.crypto.keys import PrivateKey

_ALL = bytes([SigHashType.ALL])  # the hashtype byte every signature carries


class WalletError(Exception):
    """Raised for signing and funding failures."""


@dataclass(frozen=True)
class Spendable:
    """An output this wallet can spend."""

    outpoint: OutPoint
    output: TxOut
    height: int
    is_coinbase: bool


class Wallet:
    """Holds private keys and builds signed transactions against a chain."""

    def __init__(self, keys: list[PrivateKey] | None = None):
        self._keys: list[PrivateKey] = list(keys or [])

    @staticmethod
    def from_seed(seed: bytes, count: int = 1) -> "Wallet":
        keys = [
            PrivateKey.from_seed(seed + i.to_bytes(4, "big")) for i in range(count)
        ]
        return Wallet(keys)

    @property
    def keys(self) -> list[PrivateKey]:
        return list(self._keys)

    @property
    def default_key(self) -> PrivateKey:
        if not self._keys:
            raise WalletError("wallet has no keys")
        return self._keys[0]

    @property
    def key_hash(self) -> bytes:
        return self.default_key.public.key_hash

    def _key_for_hash(self, key_hash: bytes) -> PrivateKey | None:
        for key in self._keys:
            if key.public.key_hash == key_hash:
                return key
        return None

    def _key_for_pubkey(self, pubkey: bytes) -> PrivateKey | None:
        for key in self._keys:
            if key.public.encoded == pubkey:
                return key
        return None

    def _controls(self, script_pubkey: Script) -> bool:
        classified = classify(script_pubkey)
        if classified.type is ScriptType.P2PKH:
            return self._key_for_hash(classified.data[0]) is not None
        if classified.type is ScriptType.P2PK:
            return self._key_for_pubkey(classified.data[0]) is not None
        if classified.type is ScriptType.MULTISIG:
            ours = sum(
                1 for pk in classified.data if self._key_for_pubkey(pk) is not None
            )
            return ours >= classified.required_sigs
        return False

    def spendables(self, chain: Blockchain) -> list[Spendable]:
        """Outputs in the chain's UTXO set this wallet can spend now.

        Asks the table's owner index for the entries naming one of our
        keys or key hashes, so the cost follows what the wallet owns, not
        what the chain holds; ``_controls`` then settles multisig
        thresholds.
        """
        tags = [
            tag
            for key in self._keys
            for tag in (key.public.key_hash, key.public.encoded)
        ]
        result = []
        for outpoint, entry in chain.utxos.entries_naming(tags):
            if not self._controls(entry.output.script_pubkey):
                continue
            # Same expression as consensus (check_tx_inputs): a coinbase
            # is offered only once a spend of it at the current height
            # would validate.  The old `+ 1` variant offered it one block
            # early — the wallet built spends consensus then rejected.
            if (
                entry.is_coinbase
                and chain.height - entry.height < COINBASE_MATURITY
            ):
                continue
            result.append(
                Spendable(outpoint, entry.output, entry.height, entry.is_coinbase)
            )
        # Deterministic order: oldest first, then by outpoint.
        result.sort(key=lambda s: (s.height, s.outpoint))
        return result

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------

    def sign_input(
        self,
        tx: Transaction,
        input_index: int,
        script_pubkey: Script,
    ) -> Transaction:
        """Sign one input with ``SIGHASH_ALL``, returning the transaction
        with scriptSig filled."""
        classified = classify(script_pubkey)
        digest = signature_hash(tx, input_index, script_pubkey, SigHashType.ALL)
        if classified.type is ScriptType.P2PKH:
            key = self._key_for_hash(classified.data[0])
            if key is None:
                raise WalletError("no key for P2PKH output")
            sig = key.sign_digest(digest).encode() + _ALL
            script_sig = Script([sig, key.public.encoded])
        elif classified.type is ScriptType.P2PK:
            key = self._key_for_pubkey(classified.data[0])
            if key is None:
                raise WalletError("no key for P2PK output")
            sig = key.sign_digest(digest).encode() + _ALL
            script_sig = Script([sig])
        elif classified.type is ScriptType.MULTISIG:
            sigs: list[bytes] = []
            for pubkey in classified.data:
                key = self._key_for_pubkey(pubkey)
                if key is not None:
                    sigs.append(key.sign_digest(digest).encode() + _ALL)
                if len(sigs) == classified.required_sigs:
                    break
            if len(sigs) < classified.required_sigs:
                raise WalletError("not enough keys for multisig output")
            # Leading OP_0 feeds CHECKMULTISIG's historical extra pop.
            script_sig = Script([Op.OP_0, *sigs])
        else:
            raise WalletError(f"cannot sign {classified.type} output")
        return tx.with_input_script(input_index, script_sig)

    def sign_all(
        self,
        tx: Transaction,
        prevout_scripts: list[Script],
        skip: set[OutPoint] | None = None,
    ) -> Transaction:
        """Sign every input with ``SIGHASH_ALL``; ``prevout_scripts[i]``
        locks input i.

        Inputs whose prevout is in ``skip`` are left unsigned (their
        signatures are collected elsewhere, e.g. from escrow agents).
        """
        if len(prevout_scripts) != len(tx.vin):
            raise WalletError("one prevout script required per input")
        for index, script in enumerate(prevout_scripts):
            if skip and tx.vin[index].prevout in skip:
                continue
            tx = self.sign_input(tx, index, script)
        return tx

    # ------------------------------------------------------------------
    # Funding
    # ------------------------------------------------------------------

    def create_transaction(
        self,
        chain: Blockchain,
        outputs: list[TxOut],
        fee: int,
        extra_inputs: list[Spendable] | None = None,
        exclude: set[OutPoint] | None = None,
        skip_sign: set[OutPoint] | None = None,
    ) -> Transaction:
        """Fund, build, and sign a transaction paying ``outputs`` plus ``fee``.

        Selects this wallet's spendables oldest-first; any surplus above
        outputs+fee returns to this wallet's first key, unless it is under
        the relay dust limit: no mempool would take that output, so the
        surplus goes to the fee instead.
        ``exclude`` skips outpoints already committed elsewhere (e.g. spent
        by a transaction still in the mempool).
        """
        target = sum(out.value for out in outputs) + fee
        selected: list[Spendable] = list(extra_inputs or [])
        total = sum(s.output.value for s in selected)
        if total < target:
            already = {s.outpoint for s in selected} | (exclude or set())
            for spendable in self.spendables(chain):
                if spendable.outpoint in already:
                    continue
                selected.append(spendable)
                total += spendable.output.value
                if total >= target:
                    break
        if total < target:
            raise WalletError(f"insufficient funds: have {total}, need {target}")

        vout = list(outputs)
        change = total - target
        if change >= DUST_THRESHOLD:
            vout.append(TxOut(change, p2pkh_script(self.key_hash)))

        tx = Transaction(
            vin=[TxIn(s.outpoint) for s in selected],
            vout=vout,
        )
        return self.sign_all(
            tx, [s.output.script_pubkey for s in selected], skip=skip_sign
        )
