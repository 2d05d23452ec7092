"""Batch mode: a credential server amortizing latency and fees (§3.2).

"In batch mode, a trusted third-party maintains a credential server that
holds Typecoin resources on behalf of other principals.  When principals
wish to conduct a batch-mode transaction, they notify the server, which
records the transaction but does not submit it to the network."  On
withdrawal "the server batches together all the transactions upstream of
the resource in question, routing that resource to its owner's key and the
rest back to its own key."

Scope notes (documented in DESIGN.md):

* virtual transactions may not carry local bases or affine grants, and may
  not use affine ``assert`` — those forms are bound to a specific on-chain
  transaction, so they must be written through;
* per §5, "batch-mode servers must write transactions discharging anything
  other than true through to the blockchain": a virtual proof whose result
  is conditional raises :class:`WriteThroughRequired`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.bitcoin.transaction import OutPoint, Transaction
from repro.core.proofs import (
    decompose_tensor,
    obligation_lambda,
    tensor_intro_all,
)
from repro.core.transaction import (
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
from repro.core.wire import (
    decode_bundle,
    decode_transaction,
    encode_bundle,
    encode_transaction,
)
from repro.crypto.hashing import hash160, sha256
from repro.crypto.keys import PrivateKey
from repro.lf.basis import Basis
from repro.lf.syntax import PrincipalLit, declare_shape
from repro.lf.walk import nodes_of_type
from repro.logic import proofterms as pt
from repro.logic.checker import verify_affirmation
from repro.logic.codec import Cursor, DecodingError, decode, encode, write_uint
from repro.logic.conditions import CTrue
from repro.logic.propositions import One, Proposition, tensor_all
from repro.store import framing

JOURNAL_MAGIC = b"RPRBJRN1"


class BatchError(Exception):
    """A batch-mode operation was refused."""


class WriteThroughRequired(BatchError):
    """The operation discharges a non-trivial condition (or uses a
    transaction-bound form) and must go to the blockchain instead."""


# What an intact journal record that cannot be replayed raises: JSON that
# does not parse, nests too deep, or is not a record (``ValueError``,
# ``RecursionError``, ``KeyError``, ``TypeError``, ``AttributeError``), hex
# or wire bytes that do not decode, or an operation re-verification
# refuses.
_UNREPLAYABLE = (
    ValueError, RecursionError, KeyError, TypeError, AttributeError,
    DecodingError, BatchError,
)


@dataclass(frozen=True)
class VirtualOutput:
    """A resource a virtual transaction creates, and who owns it."""

    prop: Proposition
    amount: int
    owner: bytes  # 20-byte principal

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise BatchError("output amount must be non-negative")
        _check_owner(self.owner)


def _check_owner(owner: bytes) -> None:
    """An owner no key hashes to would strand the resource it holds."""
    if len(owner) != 20:
        raise BatchError("owners are 20-byte principals")


# An untagged wire layout: what an authorization signs of each output.
declare_shape(VirtualOutput, data=("amount", "owner"))


@dataclass(frozen=True)
class VirtualTransaction:
    """A recorded-but-not-submitted transaction (§3.2).

    ``inputs`` name server-held resources by id; the proof must have type
    A ⊸ B with A the inputs tensor and B the outputs tensor.
    """

    inputs: tuple[int, ...]
    outputs: tuple[VirtualOutput, ...]
    proof: pt.ProofTerm

    def __init__(self, inputs, outputs, proof):
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "outputs", tuple(outputs))
        object.__setattr__(self, "proof", proof)

    def payload(self) -> bytes:
        """What input owners sign to authorize this transaction."""
        parts = [b"typecoin-batch:", write_uint(len(self.inputs))]
        parts += map(write_uint, self.inputs)
        parts.append(write_uint(len(self.outputs)))
        parts += map(encode, self.outputs)
        return b"".join(parts)


@dataclass
class _Resource:
    prop: Proposition
    amount: int
    owner: bytes
    # Where the backing came from: an on-chain outpoint, or a virtual
    # transaction's output.
    onchain: OutPoint | None = None
    virtual: tuple[int, int] | None = None  # (vtx id, output index)
    consumed_by: int | None = None  # vtx id
    withdrawn: bool = False


class BatchServer:
    """The §3.2 credential server.

    With ``journal_path`` set, every accepted operation appends one JSON
    record in a :mod:`repro.store.framing` frame to a durable journal, and
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
        self._resources: dict[int, _Resource] = {}
        self._vtxs: dict[int, VirtualTransaction] = {}
        # Manual id counter (not itertools.count) so journal replay can
        # reproduce the exact id sequence of the original process.
        self._next_id = 1
        self._pending_rebind: tuple[bytes, list] | None = None
        # payload digest -> vtx id: duplicate notifies collapse (§3.2
        # "principals ... notify the server" — the notify may be retried).
        self._seen_payloads: dict[bytes, int] = {}
        # Carriers recovered from the journal that the fresh wallet client
        # never tracked; sync() adopts them once confirmed.
        self._recovered_pending: dict[bytes, TypecoinTransaction] = {}
        self._journal_path = journal_path
        self._replaying = False
        if journal_path is not None:
            self._replay_journal()

    def _new_id(self) -> int:
        allocated = self._next_id
        self._next_id += 1
        return allocated

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

    def deposit(self, bundle: ClaimBundle, owner: bytes) -> int:
        """Accept a resource a principal sent to the server's key.

        The server verifies the §3 claim itself (it is an "interested
        party"), requires the txout to be locked to its own key, and
        credits ``owner``.
        """
        _check_owner(owner)
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
        # Adopt the verified history into the server's own ledger, parents
        # first — with a fresh ledger (journal replay after a restart) a
        # child would otherwise fail to re-validate before its ancestors.
        for level in dependency_levels(bundle.transactions):
            for txid in level:
                self.client.learn(txid, bundle.transactions[txid])
        resource_id = self._new_id()
        self._resources[resource_id] = _Resource(
            prop=entry.prop,
            amount=entry.amount,
            owner=owner,
            onchain=bundle.outpoint,
        )
        self._journal(
            {
                "op": "deposit",
                "bundle": encode_bundle(bundle).hex(),
                "owner": owner.hex(),
            }
        )
        return resource_id

    # -- queries -----------------------------------------------------------

    def query(self, resource_id: int) -> VirtualOutput | None:
        """Answer a validity question "based on its own records" (§3.2)."""
        resource = self._resources.get(resource_id)
        if resource is None or resource.consumed_by is not None or resource.withdrawn:
            return None
        return VirtualOutput(resource.prop, resource.amount, resource.owner)

    def holdings_of(self, owner: bytes) -> dict[int, VirtualOutput]:
        return {
            rid: VirtualOutput(r.prop, r.amount, r.owner)
            for rid, r in self._resources.items()
            if r.owner == owner and r.consumed_by is None and not r.withdrawn
        }

    # -- virtual transactions -----------------------------------------------

    def transact(
        self,
        vtx: VirtualTransaction,
        authorizations: dict[bytes, pt.Affirmation],
    ) -> int:
        """Record a batch-mode transaction.

        ``authorizations`` maps each input owner's principal to its
        :func:`authorize` affirmation.  The proof is judged by the formation
        rule's own :func:`~repro.core.validate.check_obligation`, A ⊸ B.
        """
        if not vtx.inputs:
            raise BatchError("virtual transactions need at least one input")
        # Duplicate notify: the payload signs the complete operation, so
        # an identical payload IS the same transaction — re-notifying
        # (client retry, at-least-once delivery) returns the original id
        # instead of failing on already-consumed inputs.
        payload = vtx.payload()
        digest = sha256(payload)
        already = self._seen_payloads.get(digest)
        if already is not None:
            return already
        if nodes_of_type(vtx.proof, pt.Assert):
            raise WriteThroughRequired(
                "affine assert signs a real transaction; write through"
            )
        input_props = []
        total_in = 0
        for resource_id in vtx.inputs:
            resource = self._resources.get(resource_id)
            if resource is None:
                raise BatchError(f"unknown resource {resource_id}")
            if resource.consumed_by is not None or resource.withdrawn:
                raise BatchError(f"resource {resource_id} is no longer held")
            owner = resource.owner
            # The server authorizes its own spends implicitly.
            if owner != self.principal:
                affirmation = authorizations.get(owner)
                if affirmation is None or not verify_affirmation(
                    PrincipalLit(owner), payload, affirmation
                ):
                    raise BatchError(
                        f"no valid authorization from {owner.hex()[:8]}…"
                    )
            input_props.append(resource.prop)
            total_in += resource.amount
        total_out = sum(out.amount for out in vtx.outputs)
        if total_in != total_out:
            raise BatchError(
                f"virtual transaction does not conserve satoshis"
                f" ({total_in} in, {total_out} out)"
            )

        try:
            condition, _ = check_obligation(
                self.client.ledger.global_basis,
                vtx.proof,
                tensor_all(input_props),
                tensor_all([out.prop for out in vtx.outputs]),
            )
        except ValidationFailure as exc:
            raise BatchError(f"virtual transaction refused: {exc}") from exc
        if not isinstance(condition, CTrue):
            raise WriteThroughRequired(
                "conditional discharge must be written through (§5)"
            )

        vtx_id = self._new_id()
        self._vtxs[vtx_id] = vtx
        self._seen_payloads[digest] = vtx_id
        for resource_id in vtx.inputs:
            self._resources[resource_id].consumed_by = vtx_id
        for index, out in enumerate(vtx.outputs):
            new_id = self._new_id()
            self._resources[new_id] = _Resource(
                prop=out.prop,
                amount=out.amount,
                owner=out.owner,
                virtual=(vtx_id, index),
            )
        self._journal(
            {
                "op": "transact",
                "inputs": list(vtx.inputs),
                "outputs": [
                    [encode(out.prop).hex(), out.amount, out.owner.hex()]
                    for out in vtx.outputs
                ],
                "proof": encode(vtx.proof).hex(),
                "auth": {
                    owner.hex(): [aff.pubkey.hex(), aff.signature.hex()]
                    for owner, aff in authorizations.items()
                },
            }
        )
        return vtx_id

    # -- withdrawal --------------------------------------------------------

    def withdraw(
        self, resource_id: int, recipient_pubkey: bytes, fee: int = 10_000
    ) -> Transaction:
        """Materialize a held resource on-chain (§3.2).

        Builds one Typecoin transaction whose inputs are every on-chain
        txout backing the affected virtual history, routes the withdrawn
        resource to ``recipient_pubkey``, the other live resources back to
        the server's key, and submits it.  Returns the carrier.

        State mutates only after the carrier is handed to the network: a
        submission the client refuses leaves the server's records as they
        were, so the caller can simply retry.
        """
        target = self._resources.get(resource_id)
        if target is None or target.consumed_by is not None or target.withdrawn:
            raise BatchError("resource is not available for withdrawal")
        if hash160(recipient_pubkey) != target.owner:
            raise BatchError("withdrawal key does not match the owner")

        # Held on-chain, a resource has no virtual history: a plain
        # one-in-one-out transfer.
        vtx_order = [] if target.onchain else self._affected_vtxs(resource_id)

        roots, live = self._roots_and_live(vtx_order, resource_id)

        inputs = [
            self.client.input_for(self._resources[rid].onchain)
            for rid in roots
        ]
        outputs = [TypecoinOutput(target.prop, target.amount, recipient_pubkey)]
        for rid in live:
            resource = self._resources[rid]
            outputs.append(
                TypecoinOutput(resource.prop, resource.amount, self.pubkey)
            )
        proof = self._compose_proof(roots, vtx_order, [resource_id] + live, outputs)
        txn = TypecoinTransaction(Basis(), One(), inputs, outputs, proof)
        carrier = self.client.submit(txn, fee=fee)
        target.withdrawn = True
        for rid in live:
            # The rest re-enter as fresh on-chain holdings after confirm;
            # callers invoke sync() to rebind them.
            self._resources[rid].withdrawn = True
        bindings = [(resource_id, 0)] + [
            (rid, idx + 1) for idx, rid in enumerate(live)
        ]
        self._pending_rebind = (carrier.txid, bindings)
        self._journal(
            {
                "op": "withdraw",
                "resource": resource_id,
                "live": live,
                "carrier": carrier.txid.hex(),
                "txn": encode_transaction(txn).hex(),
                "bindings": [[rid, idx] for rid, idx in bindings],
            }
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
        pending = self._pending_rebind
        if pending and pending[0] in registered:
            carrier_txid, bindings = pending
            self._apply_rebind(carrier_txid, bindings)
            # The rebind itself must be journaled: a replay that re-applied
            # the withdraw but not this step would rebind *again* on its
            # first sync, duplicating every surviving resource.
            self._journal({"op": "rebind", "carrier": carrier_txid.hex()})

    def _apply_rebind(self, carrier_txid: bytes, bindings: list) -> None:
        for rid, output_index in bindings:
            if output_index == 0:
                continue  # withdrawn to its owner; it left the server
            resource = self._resources[rid]
            # The rest routed back to the server's key: resurrect each
            # as a fresh on-chain holding for the same beneficial owner.
            new_id = self._new_id()
            self._resources[new_id] = _Resource(
                prop=resource.prop,
                amount=resource.amount,
                owner=resource.owner,
                onchain=OutPoint(carrier_txid, output_index),
            )
        self._pending_rebind = None

    # -- durability ----------------------------------------------------------

    def _journal(self, record: dict) -> None:
        if self._journal_path is None or self._replaying:
            return
        payload = json.dumps(record, sort_keys=True).encode()
        with open(self._journal_path, "ab") as handle:
            handle.write(framing.encode_record(payload))
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
        record that cannot be replayed — not JSON, not a record this server
        writes, or refused on re-verification — stops the replay with a
        :class:`BatchError` naming its offset.  Skipping it is not safe: a
        skipped ``transact`` forgets a consumption, and the resource it
        consumed could be spent again.
        """
        scan = framing.scan_records(self._journal_path, JOURNAL_MAGIC)
        self._replaying = True
        try:
            for offset, payload in scan.records:
                try:
                    self._apply_journal(json.loads(payload))
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

    def _apply_journal(self, record: dict) -> None:
        op = record["op"]
        if op == "deposit":
            self.deposit(
                decode_bundle(bytes.fromhex(record["bundle"])),
                bytes.fromhex(record["owner"]),
            )
        elif op == "transact":
            outputs = [
                VirtualOutput(
                    decode(Cursor(bytes.fromhex(prop_hex)), Proposition),
                    amount,
                    bytes.fromhex(owner_hex),
                )
                for prop_hex, amount, owner_hex in record["outputs"]
            ]
            vtx = VirtualTransaction(
                record["inputs"],
                outputs,
                decode(Cursor(bytes.fromhex(record["proof"])), pt.ProofTerm),
            )
            auths = {
                bytes.fromhex(owner_hex): pt.Affirmation(
                    bytes.fromhex(pub_hex), bytes.fromhex(sig_hex)
                )
                for owner_hex, (pub_hex, sig_hex) in record["auth"].items()
            }
            self.transact(vtx, auths)
        elif op == "withdraw":
            carrier_txid = bytes.fromhex(record["carrier"])
            self._resources[record["resource"]].withdrawn = True
            for rid in record["live"]:
                self._resources[rid].withdrawn = True
            self._pending_rebind = (
                carrier_txid,
                [(rid, idx) for rid, idx in record["bindings"]],
            )
            # Decoded, not resubmitted: sync() adopts it once confirmed.
            self._recovered_pending[carrier_txid] = decode_transaction(
                bytes.fromhex(record["txn"])
            )
        elif op == "rebind":
            carrier_txid = bytes.fromhex(record["carrier"])
            txn = self._recovered_pending.pop(carrier_txid, None)
            if txn is not None:
                self.client.learn(carrier_txid, txn)
            pending = self._pending_rebind
            if pending and pending[0] == carrier_txid:
                self._apply_rebind(carrier_txid, pending[1])
        else:
            raise BatchError(f"unknown journal record {op!r}")

    # -- internals -----------------------------------------------------------

    def _affected_vtxs(self, resource_id: int) -> list[int]:
        """All virtual transactions entangled with the target's history:
        backward closure, then forward closure over shared roots."""
        affected: set[int] = set()
        frontier_resources = {resource_id}
        while True:
            before = len(affected)
            # Backward: producers of any frontier resource.
            for rid in list(frontier_resources):
                resource = self._resources[rid]
                if resource.virtual is not None:
                    vtx_id = resource.virtual[0]
                    if vtx_id not in affected:
                        affected.add(vtx_id)
                        frontier_resources.update(self._vtxs[vtx_id].inputs)
            # Forward: consumers of any output of an affected vtx.
            for vtx_id in list(affected):
                for rid, resource in self._resources.items():
                    if resource.virtual and resource.virtual[0] == vtx_id:
                        if resource.consumed_by is not None:
                            child = resource.consumed_by
                            if child not in affected:
                                affected.add(child)
                                frontier_resources.update(self._vtxs[child].inputs)
            if len(affected) == before:
                break
        # Parents first, by the verifier's own peel: each vtx depends on
        # the producers of its inputs.
        producers = {
            vtx_id: frozenset(
                self._resources[rid].virtual[0]
                for rid in self._vtxs[vtx_id].inputs
                if self._resources[rid].virtual is not None
            )
            for vtx_id in sorted(affected)
        }
        return [vtx_id for level in peel_levels(producers) for vtx_id in level]

    def _roots_and_live(
        self, vtx_order: list[int], target_id: int
    ) -> tuple[list[int], list[int]]:
        in_closure = set(vtx_order)
        roots: list[int] = []
        live: list[int] = []
        if not vtx_order:
            return [target_id], []
        for rid, resource in sorted(self._resources.items()):
            if resource.withdrawn:
                continue
            produced_in = resource.virtual and resource.virtual[0] in in_closure
            consumed_in = resource.consumed_by in in_closure
            if resource.onchain is not None and consumed_in:
                roots.append(rid)
            elif produced_in and resource.consumed_by is None and rid != target_id:
                live.append(rid)
        return roots, live

    def _compose_proof(
        self,
        root_ids: list[int],
        vtx_order: list[int],
        final_resource_ids: list[int],
        outputs: list[TypecoinOutput],
    ) -> pt.ProofTerm:
        """Compose the virtual proofs into one transaction proof.

        Replay each virtual transaction in order, binding its outputs, then
        assemble the final outputs tensor in declared order.
        """
        if not vtx_order:
            # Direct transfer: identity on the single input.
            return obligation_lambda(
                One(),
                [self._resources[root_ids[0]].prop],
                [out.receipt() for out in outputs],
                lambda _c, ins, _rs: tensor_intro_all(list(ins)),
            )

        def body(_c, input_vars, _receipts):
            bound: dict[int, pt.ProofTerm] = dict(zip(root_ids, input_vars))

            def replay(step: int) -> pt.ProofTerm:
                if step == len(vtx_order):
                    return tensor_intro_all(
                        [bound[rid] for rid in final_resource_ids]
                    )
                vtx_id = vtx_order[step]
                vtx = self._vtxs[vtx_id]
                arg = tensor_intro_all([bound[rid] for rid in vtx.inputs])
                result = pt.LolliElim(vtx.proof, arg)
                produced_ids = [
                    rid
                    for rid, resource in sorted(self._resources.items())
                    if resource.virtual and resource.virtual[0] == vtx_id
                ]

                def bind_outputs(vars_):
                    for rid, var in zip(produced_ids, vars_):
                        bound[rid] = var
                    return replay(step + 1)

                return decompose_tensor(
                    result, len(produced_ids), bind_outputs, prefix=f"v{vtx_id}_"
                )

            return replay(0)

        return obligation_lambda(
            One(),
            [self._resources[rid].prop for rid in root_ids],
            [out.receipt() for out in outputs],
            body,
        )


def authorize(key: PrivateKey, vtx: VirtualTransaction) -> pt.Affirmation:
    """An owner's authorization for :meth:`BatchServer.transact`: an
    affirmation of the virtual transaction's payload, whose
    ``typecoin-batch:`` prefix no ``assert`` payload shares."""
    return pt.Affirmation(key.public.encoded, key.sign(vtx.payload()).encode())
