"""The Typecoin client: a principal's wallet plus ledger view.

"The Typecoin client itself can be viewed as a very small batch-mode
server, trusted by only one person" (§3.2) — it tracks the Typecoin
transactions its owner knows about, submits new ones to the Bitcoin
network, and assembles claim bundles for verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint, Transaction
from repro.bitcoin.wallet import Wallet
from repro.core.overlay import EmbeddingStrategy, build_carrier
from repro.core.transaction import TypecoinInput, TypecoinTransaction
from repro.core.validate import (
    Ledger,
    ValidationFailure,
    check_typecoin_transaction,
    world_at,
)
from repro.core.verifier import ClaimBundle, VerificationError, admit
from repro.crypto.keys import PrivateKey
from repro.lf.syntax import PrincipalLit
from repro.logic.checker import (
    affine_assert_payload,
    persistent_assert_payload,
)
from repro.logic.proofterms import (
    Affirmation,
    Assert,
    AssertPersistent,
)
from repro.logic.propositions import Proposition


class ClientError(Exception):
    """A client operation failed."""


@dataclass
class PendingSubmission:
    txn: TypecoinTransaction
    carrier: Transaction


class TypecoinClient:
    """A principal: keys, a Bitcoin wallet, and a Typecoin ledger view."""

    def __init__(self, net: RegtestNetwork, seed: bytes, ledger: Ledger | None = None):
        self.net = net
        self.wallet = Wallet.from_seed(seed, count=4)
        # Clients may share a ledger (a common view of verified history) or
        # keep their own; examples mostly share one for brevity.
        self.ledger = ledger if ledger is not None else Ledger()
        self.known: dict[bytes, TypecoinTransaction] = {}
        self.pending: dict[bytes, PendingSubmission] = {}
        # Own submissions that confirmed and were refused (§5): why.
        self.spoiled: dict[bytes, str] = {}

    # -- identity ---------------------------------------------------------

    @property
    def key(self) -> PrivateKey:
        return self.wallet.default_key

    @property
    def pubkey(self) -> bytes:
        return self.key.public.encoded

    @property
    def principal(self) -> bytes:
        return self.key.public.principal

    @property
    def principal_term(self) -> PrincipalLit:
        return PrincipalLit(self.principal)

    # -- affirmations ---------------------------------------------------------

    def affirm_persistent(self, prop: Proposition) -> AssertPersistent:
        """assert!(self, prop, sig): a transferable signed affirmation."""
        payload = persistent_assert_payload(prop)
        signature = self.key.sign(payload)
        return AssertPersistent(
            self.principal_term,
            prop,
            Affirmation(self.pubkey, signature.encode()),
        )

    def affirm_affine(
        self, prop: Proposition, txn_payload: bytes
    ) -> Assert:
        """assert(self, prop, sig): bound to one transaction (no replay)."""
        payload = affine_assert_payload(txn_payload, prop)
        signature = self.key.sign(payload)
        return Assert(
            self.principal_term,
            prop,
            Affirmation(self.pubkey, signature.encode()),
        )

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        txn: TypecoinTransaction,
        fee: int = 10_000,
        strategy: EmbeddingStrategy = EmbeddingStrategy.MULTISIG_1OF2,
    ) -> Transaction:
        """Validate, wrap in a carrier, and broadcast a transaction.

        Returns the carrier; the Typecoin transaction is registered into
        this client's ledger once :meth:`sync` sees it confirmed — the
        check here is in the tip's world and admits nothing.
        """
        try:
            check_typecoin_transaction(self.ledger, txn, world_at(self.net.chain))
        except ValidationFailure as exc:
            raise ClientError(f"refusing to submit invalid txn: {exc}") from exc
        exclude = {
            OutPoint(inp.txid, inp.index)
            for pending in self.pending.values()
            for inp in pending.txn.inputs
        }
        for pending in self.pending.values():
            exclude.update(txin.prevout for txin in pending.carrier.vin)
        # Never burn a Typecoin-carrying txout as mere funding: "cracking a
        # resource open" (§3.1) must be deliberate, not coin selection.
        exclude.update(
            OutPoint(txid, index) for (txid, index) in self.ledger.outputs
        )
        carrier = build_carrier(
            self.net.chain, self.wallet, txn, fee=fee, strategy=strategy,
            exclude=exclude,
        )
        self.net.send(carrier)
        self.pending[carrier.txid] = PendingSubmission(txn, carrier)
        return carrier

    def sync(self) -> list[bytes]:
        """Register any pending submissions that have confirmed.

        Returns the carrier txids registered this call.  One that chain
        formation refuses — its condition held at the tip and not in the
        block that mined it — is spoiled (§5): it leaves ``pending`` for
        ``spoiled`` with the reason, and the ledger is untouched.
        """
        registered = []
        for carrier_txid in list(self.pending):
            if self.net.chain.confirmations(carrier_txid) < 1:
                continue
            try:
                self.learn(carrier_txid, self.pending.pop(carrier_txid).txn)
            except VerificationError as exc:
                self.spoiled[carrier_txid] = str(exc)
            else:
                registered.append(carrier_txid)
        return registered

    # -- receiving ---------------------------------------------------------

    def learn(self, carrier_txid: bytes, txn: TypecoinTransaction) -> None:
        """Record a confirmed transaction (ours, or one another party sent
        us) once it passes chain formation; ``VerificationError`` if not."""
        if carrier_txid not in self.ledger.transactions:
            admit(self.ledger, self.net.chain, carrier_txid, txn)
        self.known[carrier_txid] = self.ledger.transactions[carrier_txid]

    # -- claims ------------------------------------------------------------

    def claim_bundle(self, outpoint: OutPoint, prop: Proposition) -> ClaimBundle:
        """Assemble T_I plus the upstream set 𝔗 for a verifier (§3).

        "Upstream" covers both spent-output ancestry and the transactions
        whose bases declared the constants in play.
        """
        needed: dict[bytes, TypecoinTransaction] = {}
        frontier = [outpoint.txid]
        while frontier:
            txid = frontier.pop()
            if txid in needed:
                continue
            txn = self.known.get(txid) or self.ledger.transactions.get(txid)
            if txn is None:
                raise ClientError(
                    f"missing upstream transaction {txid[:8].hex()}…"
                )
            needed[txid] = txn
            frontier.extend(txn.references)
        return ClaimBundle(outpoint=outpoint, prop=prop, transactions=needed)

    # -- typecoin inputs from ledger state -----------------------------------

    def input_for(self, outpoint: OutPoint) -> TypecoinInput:
        """Build the ι for spending a ledger-known output."""
        entry = self.ledger.output(outpoint.txid, outpoint.index)
        if entry is None:
            raise ClientError(f"unknown Typecoin output {outpoint}")
        return TypecoinInput(
            txid=outpoint.txid,
            index=outpoint.index,
            prop=entry.prop,
            amount=entry.amount,
        )
