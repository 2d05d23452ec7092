"""Batch mode: a credential server amortizing latency and fees (§3.2).

"In batch mode, a trusted third-party maintains a credential server that
holds Typecoin resources on behalf of other principals.  When principals
wish to conduct a batch-mode transaction, they notify the server, which
records the transaction but does not submit it to the network."  On
withdrawal "the server batches together all the transactions upstream of
the resource in question, routing that resource to its owner's key and the
rest back to its own key."

What the server records is a :class:`TypecoinTransaction`.  Its inputs
name held resources by outpoint: a deposit by its carrier outpoint, a
virtual output by ``(T.hash, i)`` — mirroring ``[txid/this]`` — and a
resource a withdrawal routed back by ``(carrier txid, i)``.  A holding is
an output: its key is the owner's.

Scope notes (documented in DESIGN.md):

* a virtual transaction has an empty basis, the grant ``1`` and a proof
  of A ⊸ B with no receipts: it has no carrier for ``spent(txid.n)`` to
  name.  A local basis, a grant and an affine ``assert`` are bound to a
  specific on-chain transaction, so they must be written through;
* per §5, "batch-mode servers must write transactions discharging anything
  other than true through to the blockchain": a virtual proof whose result
  is conditional raises :class:`WriteThroughRequired`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.bitcoin.transaction import OutPoint, Transaction
from repro.core.proofs import decompose_tensor, obligation_lambda, tensor_intro_all
from repro.core.transaction import (
    TxnError,
    TypecoinInput,
    TypecoinOutput,
    TypecoinTransaction,
)
from repro.core.validate import Ledger, ValidationFailure, check_obligation
from repro.core.verifier import (
    ClaimBundle,
    VerificationError,
    dependency_levels,
    peel_levels,
    verify_claim,
)
from repro.core.wallet import TypecoinClient
from repro.core.wire import decode_bundle, decode_transaction, encode_bundle
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.lf.basis import Basis
from repro.lf.syntax import PrincipalLit
from repro.lf.walk import convertible, nodes_of_type
from repro.logic import proofterms as pt
from repro.logic.checker import verify_affirmation
from repro.logic.codec import Cursor, DecodingError, write_blob, write_uint
from repro.logic.conditions import CTrue
from repro.logic.propositions import One, tensor_all
from repro.store import framing

JOURNAL_MAGIC = b"RPRBJRN2"

# A journal record is one of these bytes, then its fields in the wire
# format (repro.logic.codec):
#   DEPOSIT   bundle, owner key
#   TRANSACT  transaction, affirmation count, (key, signature) each
#   WITHDRAW  carrier txid, outpoints (the resource, then those routed
#             back), transaction
#   REBIND    carrier txid
DEPOSIT, TRANSACT, WITHDRAW, REBIND = 1, 2, 3, 4


class BatchError(Exception):
    """A batch-mode operation was refused."""


class WriteThroughRequired(BatchError):
    """The transaction has a local basis, a grant or an affine ``assert``,
    or discharges a condition other than true: it must go to the
    blockchain instead."""


# What an intact journal record that cannot be replayed raises: bytes the
# wire decoders refuse, an owner key ``TypecoinOutput`` refuses, or an
# operation re-verification refuses.
_UNREPLAYABLE = (DecodingError, TxnError, BatchError)


@dataclass
class _Holding:
    """A resource the server holds: the output it is (its key is the
    owner's), and what became of it."""

    output: TypecoinOutput
    consumed_by: bytes | None = None  # the virtual transaction's hash
    withdrawn: bool = False

    @property
    def held(self) -> bool:
        return self.consumed_by is None and not self.withdrawn


class BatchServer:
    """The §3.2 credential server.

    With ``journal_path`` set, every accepted operation appends one record
    in a :mod:`repro.store.framing` frame to a durable journal, and
    constructing a server over an existing journal *replays* it: deposits
    and virtual transactions are re-verified from scratch (the journal is
    trusted for *what* happened, never for *whether it was valid*), while
    withdrawals re-apply their recorded effects without resubmitting
    anything to the network — the carrier is already on (or bound for)
    the chain, so a restart can never discharge the same resource twice.
    """

    def __init__(
        self,
        net,
        seed: bytes,
        ledger: Ledger | None = None,
        journal_path: str | None = None,
    ):
        self.client = TypecoinClient(net, seed, ledger)
        # Every resource the server has held, by the outpoint naming it.
        self._holdings: dict[OutPoint, _Holding] = {}
        # Recorded virtual transactions by hash, in the order recorded.
        self._virtual: dict[bytes, TypecoinTransaction] = {}
        # Withdrawal carrier txid -> the outpoints it routes back, in its
        # output order from 1; sync() rebinds them once it confirms.
        self._rebinds: dict[bytes, list[OutPoint]] = {}
        # Carriers recovered from the journal that the fresh wallet client
        # never tracked; sync() adopts them once confirmed.
        self._recovered_pending: dict[bytes, TypecoinTransaction] = {}
        self._journal_path = journal_path
        self._replaying = False
        if journal_path is not None:
            self._replay_journal()

    @property
    def net(self):
        return self.client.net

    @property
    def principal(self) -> bytes:
        return self.client.principal

    @property
    def pubkey(self) -> bytes:
        return self.client.pubkey

    # -- deposits --------------------------------------------------------

    def deposit(self, bundle: ClaimBundle, owner_pubkey: bytes) -> OutPoint:
        """Accept a resource a principal sent to the server's key; returns
        the outpoint that names it.

        The server verifies the §3 claim itself (it is an "interested
        party"), requires the txout to be locked to its own key, and holds
        the resource for ``owner_pubkey``.
        """
        if bundle.outpoint in self._holdings:
            raise BatchError(f"{bundle.outpoint} is already deposited")
        try:
            # Replay relaxes ONLY the is-currently-unspent check: the
            # journal witnessed the outpoint unspent at deposit time, and
            # the spend that exists now is our own later withdrawal
            # carrier.  Everything type-level is still re-verified.
            ledger = verify_claim(
                self.net.chain,
                bundle,
                require_unspent=not self._replaying,
                base_ledger=self.client.ledger,
            )
        except VerificationError as exc:
            raise BatchError(f"deposit rejected: {exc}") from exc
        entry = ledger.output(bundle.outpoint.txid, bundle.outpoint.index)
        assert entry is not None
        if entry.principal != self.principal:
            raise BatchError("deposited txout is not locked to the server")
        holding = _Holding(TypecoinOutput(entry.prop, entry.amount, owner_pubkey))
        # Adopt the verified history into the server's own ledger, parents
        # first — with a fresh ledger (journal replay after a restart) a
        # child would otherwise fail to re-validate before its ancestors.
        for level in dependency_levels(bundle.transactions):
            for txid in level:
                self.client.learn(txid, bundle.transactions[txid])
        self._holdings[bundle.outpoint] = holding
        self._journal(DEPOSIT, write_blob(encode_bundle(bundle)), write_blob(owner_pubkey))
        return bundle.outpoint

    # -- queries -----------------------------------------------------------

    def query(self, outpoint: OutPoint) -> TypecoinOutput | None:
        """Answer a validity question "based on its own records" (§3.2)."""
        holding = self._holdings.get(outpoint)
        return holding.output if holding is not None and holding.held else None

    def holdings_of(self, owner: bytes) -> dict[OutPoint, TypecoinOutput]:
        return {
            outpoint: holding.output
            for outpoint, holding in self._holdings.items()
            if holding.held and holding.output.principal == owner
        }

    def input_for(self, outpoint: OutPoint) -> TypecoinInput:
        """The ι naming the resource held at ``outpoint``."""
        held = self._held(outpoint)
        return TypecoinInput(outpoint.txid, outpoint.index, held.prop, held.amount)

    # -- virtual transactions -----------------------------------------------

    def transact(
        self,
        txn: TypecoinTransaction,
        authorizations: dict[bytes, pt.Affirmation],
    ) -> bytes:
        """Record a batch-mode transaction; returns its hash, which names
        its outputs.

        ``authorizations`` maps each input owner's principal to its
        :func:`authorize` affirmation.  The proof is judged by the formation
        rule's own :func:`~repro.core.validate.check_obligation`, A ⊸ B.
        A re-sent transaction has a recorded hash and is answered with it.
        """
        name = txn.hash
        if name in self._virtual:
            return name
        if txn.basis or txn.grant != One() or nodes_of_type(txn.proof, pt.Assert):
            raise WriteThroughRequired(
                "a local basis, a grant or an affine assert is bound to a real"
                " transaction; write through"
            )
        outpoints = [OutPoint(inp.txid, inp.index) for inp in txn.inputs]
        if not outpoints:
            raise BatchError("virtual transactions need at least one input")
        if len(set(outpoints)) != len(outpoints):
            raise BatchError("virtual transaction names an input twice")
        payload = txn.signing_payload()
        signers: dict[bytes, pt.Affirmation] = {}
        for outpoint, inp in zip(outpoints, txn.inputs):
            held = self._held(outpoint)
            if inp.amount != held.amount or not convertible(inp.prop, held.prop):
                raise BatchError(f"input {outpoint} is not the resource held there")
            owner = held.principal
            # The server authorizes its own spends implicitly.
            if owner != self.principal and owner not in signers:
                affirmation = authorizations.get(owner)
                if affirmation is None or not verify_affirmation(
                    PrincipalLit(owner), payload, affirmation
                ):
                    raise BatchError(
                        f"no valid authorization from {owner.hex()[:8]}…"
                    )
                signers[owner] = affirmation
        total_in = sum(inp.amount for inp in txn.inputs)
        total_out = sum(out.amount for out in txn.outputs)
        if total_in != total_out:
            raise BatchError(
                f"virtual transaction does not conserve satoshis"
                f" ({total_in} in, {total_out} out)"
            )

        try:
            condition, _ = check_obligation(
                self.client.ledger.global_basis,
                txn.proof,
                tensor_all([inp.prop for inp in txn.inputs]),
                txn.outputs_tensor(),
            )
        except ValidationFailure as exc:
            raise BatchError(f"virtual transaction refused: {exc}") from exc
        if not isinstance(condition, CTrue):
            raise WriteThroughRequired(
                "conditional discharge must be written through (§5)"
            )

        self._virtual[name] = txn
        for outpoint in outpoints:
            self._holdings[outpoint].consumed_by = name
        for index, out in enumerate(txn.outputs):
            self._holdings[OutPoint(name, index)] = _Holding(out)
        self._journal(
            TRANSACT,
            write_blob(txn.serialize()),
            write_uint(len(signers)),
            *(write_blob(a.pubkey) + write_blob(a.signature) for a in signers.values()),
        )
        return name

    # -- withdrawal --------------------------------------------------------

    def withdraw(self, outpoint: OutPoint, fee: int = 10_000) -> Transaction:
        """Materialize a held resource on-chain, to its owner's key (§3.2).

        Builds one Typecoin transaction whose inputs are every on-chain
        txout backing the affected virtual history, routes the withdrawn
        resource to its owner's key, the other live resources back to the
        server's key, and submits it.  Returns the carrier.

        State mutates only after the carrier is handed to the network: a
        submission the client refuses leaves the server's records as they
        were, so the caller can simply retry.
        """
        target = self._held(outpoint)
        # A resource held on-chain has no virtual history: its withdrawal
        # is a plain one-in-one-out transfer.
        order = self._history(outpoint)
        roots, live = self._roots_and_live(order, outpoint)
        outputs = [target] + [
            TypecoinOutput(held.prop, held.amount, self.pubkey)
            for held in (self._holdings[op].output for op in live)
        ]
        proof = self._compose_proof(roots, order, [outpoint, *live], outputs)
        inputs = [self.client.input_for(root) for root in roots]
        txn = TypecoinTransaction(Basis(), One(), inputs, outputs, proof)
        carrier = self.client.submit(txn, fee=fee)
        self._mark_withdrawn(carrier.txid, [outpoint, *live])
        self._journal(
            WITHDRAW,
            write_blob(carrier.txid),
            _write_outpoints([outpoint, *live]),
            write_blob(txn.serialize()),
        )
        return carrier

    def sync(self) -> None:
        """Register confirmed submissions; rebind surviving resources to
        their new on-chain outpoints."""
        registered = set(self.client.sync())
        # Carriers recovered from the journal were submitted by a previous
        # process, so the fresh wallet's pending set never saw them: watch
        # the chain directly and adopt each once it confirms.
        for carrier_txid, txn in list(self._recovered_pending.items()):
            if self.net.chain.confirmations(carrier_txid) >= 1:
                self.client.learn(carrier_txid, txn)
                del self._recovered_pending[carrier_txid]
                registered.add(carrier_txid)
        for carrier_txid in [t for t in self._rebinds if t in registered]:
            self._apply_rebind(carrier_txid)
            # The rebind itself must be journaled: a replay that re-applied
            # the withdraw but not this step would rebind *again* on its
            # first sync, duplicating every surviving resource.
            self._journal(REBIND, write_blob(carrier_txid))

    def _mark_withdrawn(self, carrier_txid: bytes, withdrawn: list[OutPoint]) -> None:
        """The resource ``withdrawn[0]`` left for its owner's key and the
        rest route back under ``carrier_txid``; they leave the server's
        holdings until the carrier confirms."""
        if not withdrawn:
            raise BatchError("a withdrawal names the resource it withdraws")
        for outpoint in withdrawn:
            self._held(outpoint)
            self._holdings[outpoint].withdrawn = True
        self._rebinds[carrier_txid] = withdrawn[1:]

    def _apply_rebind(self, carrier_txid: bytes) -> None:
        # What routed back to the server's key is held again, under the
        # carrier's output, for the same owner.
        for index, outpoint in enumerate(self._rebinds.pop(carrier_txid), 1):
            self._holdings[OutPoint(carrier_txid, index)] = _Holding(
                self._holdings[outpoint].output
            )

    # -- durability ----------------------------------------------------------

    def _journal(self, op: int, *fields: bytes) -> None:
        if self._journal_path is None or self._replaying:
            return
        with open(self._journal_path, "ab") as handle:
            handle.write(framing.encode_record(bytes((op,)) + b"".join(fields)))
            handle.flush()
            os.fsync(handle.fileno())

    def _replay_journal(self) -> None:
        """Rebuild server state from the journal (constructor path).

        Deposits and virtual transactions run back through the normal
        verification entry points — the journal records *what* was asked,
        and every record must still prove itself against the chain and the
        checker.  Withdrawals are different: their carrier was already
        submitted, so replay re-applies the recorded effects (mark
        withdrawn, stage the rebind) without submitting anything, which is
        what makes a crash-restart unable to discharge a resource twice.

        A torn tail is cut off before the next append, which would
        otherwise be lost with it at the following restart.  An intact
        record that cannot be replayed — bytes the wire decoders refuse, a
        kind this server does not write, or refused on re-verification —
        stops the replay with a :class:`BatchError` naming its offset.
        Skipping it is not safe: a skipped ``transact`` forgets a
        consumption, and the resource it consumed could be spent again.
        """
        scan = framing.scan_records(self._journal_path, JOURNAL_MAGIC)
        self._replaying = True
        try:
            for offset, record in scan.records:
                try:
                    self._apply_journal(Cursor(record))
                except _UNREPLAYABLE as exc:
                    raise BatchError(
                        f"journal record at offset {offset} cannot be replayed:"
                        f" {type(exc).__name__}: {exc}"
                    ) from exc
        finally:
            self._replaying = False
        framing.open_for_append(
            self._journal_path, JOURNAL_MAGIC, scan.valid_length
        ).close()

    def _apply_journal(self, cursor: Cursor) -> None:
        op = cursor.byte()
        if op == DEPOSIT:
            bundle, owner_pubkey = decode_bundle(cursor.blob()), cursor.blob()
            _end(cursor)
            self.deposit(bundle, owner_pubkey)
        elif op == TRANSACT:
            txn = decode_transaction(cursor.blob())
            signed = [
                pt.Affirmation(cursor.blob(), cursor.blob())
                for _ in range(cursor.uint())
            ]
            _end(cursor)
            self.transact(txn, {hash160(a.pubkey): a for a in signed})
        elif op == WITHDRAW:
            carrier_txid, withdrawn = cursor.blob(), _read_outpoints(cursor)
            txn = decode_transaction(cursor.blob())
            _end(cursor)
            self._mark_withdrawn(carrier_txid, withdrawn)
            # Decoded, not resubmitted: sync() adopts it once confirmed.
            self._recovered_pending[carrier_txid] = txn
        elif op == REBIND:
            carrier_txid = cursor.blob()
            _end(cursor)
            if carrier_txid not in self._rebinds:
                raise BatchError("rebind of a carrier no withdrawal names")
            self.client.learn(carrier_txid, self._recovered_pending.pop(carrier_txid))
            self._apply_rebind(carrier_txid)
        else:
            raise BatchError(f"unknown journal record kind {op}")

    # -- internals -----------------------------------------------------------

    def _held(self, outpoint: OutPoint) -> TypecoinOutput:
        holding = self._holdings.get(outpoint)
        if holding is None or not holding.held:
            raise BatchError(f"resource {outpoint} is not held")
        return holding.output

    def _history(self, outpoint: OutPoint) -> list[bytes]:
        """Every virtual transaction entangled with the resource at
        ``outpoint``, parents first: the connected part of the history
        through producers of inputs and consumers of outputs."""
        affected: set[bytes] = set()
        frontier = [outpoint.txid]
        while frontier:
            name = frontier.pop()
            if name in affected or name not in self._virtual:
                continue
            affected.add(name)
            txn = self._virtual[name]
            frontier += [inp.txid for inp in txn.inputs]
            for index in range(len(txn.outputs)):
                consumer = self._holdings[OutPoint(name, index)].consumed_by
                if consumer is not None:
                    frontier.append(consumer)
        # Parents first, by the verifier's own peel; recording order
        # within a level.
        producers = {
            name: frozenset(inp.txid for inp in txn.inputs)
            for name, txn in self._virtual.items()
            if name in affected
        }
        return [name for level in peel_levels(producers) for name in level]

    def _roots_and_live(
        self, order: list[bytes], target: OutPoint
    ) -> tuple[list[OutPoint], list[OutPoint]]:
        """The on-chain resources ``order`` consumes, and the resources it
        produced that are still held, the target aside."""
        if not order:
            return [target], []
        closure = set(order)
        roots: list[OutPoint] = []
        live: list[OutPoint] = []
        for name in order:
            txn = self._virtual[name]
            roots += [
                OutPoint(inp.txid, inp.index)
                for inp in txn.inputs
                if inp.txid not in closure
            ]
            for index in range(len(txn.outputs)):
                outpoint = OutPoint(name, index)
                if outpoint != target and self._holdings[outpoint].held:
                    live.append(outpoint)
        return roots, live

    def _compose_proof(
        self,
        roots: list[OutPoint],
        order: list[bytes],
        final: list[OutPoint],
        outputs: list[TypecoinOutput],
    ) -> pt.ProofTerm:
        """Compose the virtual proofs into one transaction proof.

        Replay each virtual transaction in order, binding its outputs, then
        assemble the final outputs tensor in declared order; with no
        history that is the identity on the one input.
        """

        def body(_c, input_vars, _receipts):
            bound: dict[OutPoint, pt.ProofTerm] = dict(zip(roots, input_vars))

            def replay(step: int) -> pt.ProofTerm:
                if step == len(order):
                    return tensor_intro_all([bound[op] for op in final])
                name = order[step]
                txn = self._virtual[name]
                arg = tensor_intro_all(
                    [bound[OutPoint(inp.txid, inp.index)] for inp in txn.inputs]
                )

                def bind_outputs(vars_):
                    for index, var in enumerate(vars_):
                        bound[OutPoint(name, index)] = var
                    return replay(step + 1)

                return decompose_tensor(
                    pt.LolliElim(txn.proof, arg), len(txn.outputs), bind_outputs,
                    prefix=f"v{step}_",
                )

            return replay(0)

        return obligation_lambda(
            One(),
            [self._holdings[op].output.prop for op in roots],
            [out.receipt() for out in outputs],
            body,
        )


def _write_outpoints(outpoints: list[OutPoint]) -> bytes:
    return write_uint(len(outpoints)) + b"".join(
        write_blob(op.txid) + write_uint(op.index) for op in outpoints
    )


def _read_outpoints(cursor: Cursor) -> list[OutPoint]:
    return [OutPoint(cursor.blob(), cursor.uint()) for _ in range(cursor.uint())]


def _end(cursor: Cursor) -> None:
    if not cursor.exhausted:
        raise DecodingError("trailing bytes after journal record")


def authorize(key: PrivateKey, txn: TypecoinTransaction) -> pt.Affirmation:
    """An owner's authorization for :meth:`BatchServer.transact`: an
    affirmation of the transaction's signing payload, whose
    ``typecoin-txn:`` prefix no ``assert`` payload shares."""
    return pt.Affirmation(
        key.public.encoded, key.sign(txn.signing_payload()).encode()
    )
