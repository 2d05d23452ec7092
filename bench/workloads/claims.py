"""The claim working set the two claim-verify workloads share.

Built once per set-up on one regtest chain:

* **ladders** — per principal one independent ``simple_transfer`` chain
  at each depth in :data:`DEPTHS` (no shared upstream), the shape
  ``benchmarks/bench_e6_verifier_scaling.py`` measures;
* **rich claims** — the paper's worked examples, whose proofs exercise
  the LF typechecker and the proof checker rather than chain length:
  the §6 newcoin currency (publish, issue by affirmation, split, merge),
  the Figure 3 purchase, ``before`` and ``spent`` conditionals (§5) and
  the §7 escrowed puzzle prize.

Every claimed output is unspent at the end, so each claim verifies
``ok`` under the service's default ``require_unspent``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import OutPoint, TxOut
from repro.bitcoin.wallet import Spendable
from repro.core.builder import (
    basis_publication,
    build_with_payload,
    simple_transfer,
)
from repro.core.currency import (
    banker_offer_prop,
    confirm_banker_proof,
    figure3_proof,
    issue_proof,
    merge_proof,
    newcoin_basis,
    split_proof,
)
from repro.core.escrow import (
    EscrowAgent,
    OpenOutput,
    OpenTransaction,
    assemble_multisig_input,
    escrow_lock,
    sign_template,
)
from repro.core.overlay import build_carrier
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import (
    TypecoinInput,
    TypecoinOutput,
    TypecoinTransaction,
    trivial_output,
)
from repro.core.validate import Ledger, check_typecoin_transaction, world_at
from repro.core.verifier import ClaimBundle
from repro.core.wallet import TypecoinClient
from repro.core.wire import encode_bundle
from repro.crypto.keys import PrivateKey
from repro.lf.basis import (
    NAT_T,
    PLUS,
    PLUS_REFL,
    Basis,
    KindDecl,
    PropDecl,
)
from repro.lf.syntax import (
    KIND_PROP,
    Const,
    ConstRef,
    KPi,
    NatLit,
    TConst,
    Var,
    apply_family,
    apply_term,
)
from repro.logic.conditions import Before, CAnd, CNot, Spent
from repro.logic.proofterms import (
    ExistsIntro,
    ForallElim,
    IfBind,
    IfReturn,
    LolliElim,
    LolliIntro,
    OneIntro,
    PConst,
    PVar,
    TensorElim,
    TensorIntro,
    let_,
)
from repro.logic.propositions import (
    Atom,
    Exists,
    Forall,
    IfProp,
    Lolli,
    One,
    Proposition,
    Receipt,
    Says,
    Tensor,
)

from bench.common import sha256_hex

DEPTHS = (1, 2, 4, 8, 16, 32)
RICH_CLAIMS = 13
FAR_FUTURE = 2_000_000_000  # a ``before`` deadline no regtest block reaches


@dataclass
class Claimed:
    """One entry of the working set."""

    label: str
    bundle: ClaimBundle
    wrong: ClaimBundle  # same txout and upstream set, a type it does not have


@dataclass
class WorkingSet:
    chain: object  # the regtest Blockchain every claim is confirmed on
    claims: list[Claimed]
    digest: str  # sha256 over the encoded bundles, in order


def build_working_set(seed: int, principals: int) -> WorkingSet:
    net = RegtestNetwork()
    ledger = Ledger()
    builder = _Builder(net, ledger, seed)
    claims = builder.ladders(principals) + builder.rich()
    return WorkingSet(
        chain=net.chain,
        claims=claims,
        digest=sha256_hex(*(encode_bundle(c.bundle) for c in claims)),
    )


class _Builder:
    def __init__(self, net: RegtestNetwork, ledger: Ledger, seed: int):
        self.net = net
        self.ledger = ledger
        self.seed = seed

    def client(self, name: str, funding_blocks: int = 2) -> TypecoinClient:
        """A funded principal whose keys derive from the benchmark seed."""
        client = TypecoinClient(
            self.net, b"bench-%d-%s" % (self.seed, name.encode()), self.ledger
        )
        self.net.fund_wallet(client.wallet, blocks=funding_blocks)
        return client

    def confirm(self, *clients: TypecoinClient) -> None:
        self.net.confirm(1)
        for client in clients:
            client.sync()

    def claimed(
        self, label: str, client: TypecoinClient, outpoint: OutPoint,
        prop: Proposition,
    ) -> Claimed:
        bundle = client.claim_bundle(outpoint, prop)
        wrong = ClaimBundle(
            outpoint=outpoint,
            prop=Tensor(prop, One()),
            transactions=bundle.transactions,
        )
        return Claimed(label, bundle, wrong)

    # -- ladders -------------------------------------------------------

    def ladders(self, principals: int) -> list[Claimed]:
        """All principals advance all their chains one step per block."""
        clients = [
            # One coinbase per chain: each step spends one output per chain
            # and gets its change back only when the block confirms.
            self.client(f"ladder-{i}", funding_blocks=len(DEPTHS))
            for i in range(principals)
        ]
        heads: dict[tuple[int, int], OutPoint | None] = {
            (i, depth): None for i in range(principals) for depth in DEPTHS
        }
        for step in range(max(DEPTHS)):
            sent = {}
            for (i, depth), head in heads.items():
                if step >= depth:
                    continue
                client = clients[i]
                spends = [client.input_for(head)] if head is not None else []
                txn = simple_transfer(
                    spends, [TypecoinOutput(One(), 600, client.pubkey)]
                )
                sent[(i, depth)] = client.submit(txn)
            self.confirm(*clients)
            for key, carrier in sent.items():
                heads[key] = OutPoint(carrier.txid, 0)
        return [
            self.claimed(f"ladder-{i}-depth-{depth}", clients[i], head, One())
            for (i, depth), head in heads.items()
        ]

    # -- rich claims ---------------------------------------------------

    def rich(self) -> list[Claimed]:
        claims = self._currency() + self._conditionals() + self._escrow()
        if len(claims) != RICH_CLAIMS:
            raise RuntimeError(f"built {len(claims)} rich claims")
        return claims

    def _submit(self, client: TypecoinClient, txn) -> bytes:
        carrier = client.submit(txn)
        self.confirm(client)
        return carrier.txid

    def _currency(self) -> list[Claimed]:
        """§6: publish newcoin, issue by affirmation, split, merge, and
        the Figure 3 purchase (8 claims)."""
        bank = self.client("bank", funding_blocks=3)
        alice = self.client("alice")
        basis, vocab = newcoin_basis(bank.principal_term, bank.principal_term)
        basis_txid = self._submit(bank, basis_publication(basis, bank.pubkey))
        vocab = vocab.resolved(basis_txid)

        def issue(amount: int) -> OutPoint:
            out = TypecoinOutput(vocab.coin_prop(amount), 600, bank.pubkey)
            txn = build_with_payload(
                Basis(), One(), [], [out],
                lambda payload: obligation_lambda(
                    One(), [], [out.receipt()],
                    lambda _c, _i, _r: tensor_intro_all([
                        issue_proof(
                            vocab, amount,
                            bank.affirm_affine(
                                vocab.print_prop(amount), payload
                            ),
                        )
                    ]),
                ),
            )
            return OutPoint(self._submit(bank, txn), 0)

        def split(whole: OutPoint, left: int, right: int) -> bytes:
            outs = [
                TypecoinOutput(vocab.coin_prop(left), 600, bank.pubkey),
                TypecoinOutput(vocab.coin_prop(right), 600, bank.pubkey),
            ]
            txn = simple_transfer(
                [bank.input_for(whole)], outs,
                body=lambda ins: split_proof(vocab, left, right, ins[0]),
            )
            return self._submit(bank, txn)

        first = split(issue(100), 30, 70)
        second = split(OutPoint(first, 1), 20, 50)
        a, b = issue(40), issue(2)
        merged = self._submit(
            bank,
            simple_transfer(
                [bank.input_for(a), bank.input_for(b)],
                [TypecoinOutput(vocab.coin_prop(42), 1200, bank.pubkey)],
                body=lambda ins: merge_proof(vocab, 40, 2, ins[0], ins[1]),
            ),
        )
        issued = [issue(7), issue(9)]
        purchase = self._figure3(vocab, bank, alice)
        return [
            self.claimed("newcoin-basis", bank, OutPoint(basis_txid, 0), One()),
            self.claimed("newcoin-issue-7", bank, issued[0], vocab.coin_prop(7)),
            self.claimed("newcoin-issue-9", bank, issued[1], vocab.coin_prop(9)),
            self.claimed(
                "newcoin-split-30", bank, OutPoint(first, 0), vocab.coin_prop(30)
            ),
            self.claimed(
                "newcoin-split-20", bank, OutPoint(second, 0), vocab.coin_prop(20)
            ),
            self.claimed(
                "newcoin-split-50", bank, OutPoint(second, 1), vocab.coin_prop(50)
            ),
            self.claimed(
                "newcoin-merge-42", bank, OutPoint(merged, 0), vocab.coin_prop(42)
            ),
            self.claimed(
                "figure3-purchase", alice, OutPoint(purchase, 0),
                vocab.coin_prop(25),
            ),
        ]

    def _figure3(self, vocab, bank, alice) -> bytes:
        """Figure 3: Alice buys 25 newcoins against the banker's published
        offer, revocable by spending R and limited to the banker's term."""
        n_btc, n_newcoins = 50_000, 25
        revocation_tx = bank.wallet.create_transaction(
            self.net.chain,
            [TxOut(1000, p2pkh_script(bank.wallet.key_hash))],
            fee=1000,
            # not the 600-sat outputs that carry the bank's coins
            exclude={OutPoint(t, i) for (t, i) in self.ledger.outputs},
        )
        self.net.send(revocation_tx)
        self.confirm()
        revocation = Spent(revocation_tx.txid, 0)
        order = bank.affirm_persistent(
            banker_offer_prop(
                vocab, bank.principal_term, n_btc, n_newcoins, revocation
            )
        )
        appointment = bank.affirm_persistent(
            vocab.appoint_prop(bank.principal_term, FAR_FUTURE)
        )
        coin_out = TypecoinOutput(vocab.coin_prop(n_newcoins), 600, alice.pubkey)
        payment_out = trivial_output(bank.pubkey, n_btc)
        condition = CAnd(CNot(revocation), Before(NatLit(FAR_FUTURE)))

        def body(_c, _ins, receipts):
            core = let_(
                "ordr", Says(bank.principal_term, order.prop), order,
                let_(
                    "bnkr",
                    vocab.is_banker_prop(bank.principal_term, FAR_FUTURE),
                    confirm_banker_proof(
                        vocab, bank.principal_term, FAR_FUTURE, appointment
                    ),
                    let_(
                        "rcpt", payment_out.receipt(), receipts[1],
                        figure3_proof(
                            vocab, bank.principal_term, FAR_FUTURE,
                            n_newcoins, revocation,
                            receipt_var="rcpt", order_var="ordr",
                            banker_cred_var="bnkr",
                        ),
                    ),
                ),
            )
            return IfBind(
                "w", core,
                IfReturn(condition, TensorIntro(PVar("w"), OneIntro())),
            )

        txn = TypecoinTransaction(
            Basis(), One(), [], [coin_out, payment_out],
            obligation_lambda(
                One(), [], [coin_out.receipt(), payment_out.receipt()], body
            ),
        )
        return self._submit(alice, txn)

    def _conditionals(self) -> list[Claimed]:
        """§5: an option exercised ``before`` its expiry, and a good
        released once a marker output is ``spent`` (3 claims)."""
        writer = self.client("writer", funding_blocks=3)
        holder = self.client("holder", funding_blocks=3)
        marker = writer.wallet.create_transaction(
            self.net.chain,
            [TxOut(1000, p2pkh_script(writer.wallet.key_hash))],
            fee=1000,
        )
        self.net.send(marker)
        self.confirm()
        entry = self.net.chain.utxos.get(OutPoint(marker.txid, 0))
        spend_marker = writer.wallet.create_transaction(
            self.net.chain,
            [TxOut(600, p2pkh_script(writer.wallet.key_hash))],
            fee=400,
            extra_inputs=[
                Spendable(
                    OutPoint(marker.txid, 0), entry.output, entry.height,
                    entry.is_coinbase,
                )
            ],
        )
        self.net.send(spend_marker)
        self.confirm()

        price = 75_000
        conditions = {
            "option": Before(NatLit(FAR_FUTURE)),
            "release": Spent(marker.txid, 0),
        }
        basis = Basis()
        for name, condition in conditions.items():
            good = basis.declare_local(f"{name}-good", KindDecl(KIND_PROP))
            basis.declare_local(
                f"{name}-exercise",
                PropDecl(Lolli(
                    Receipt(One(), price, writer.principal_term),
                    IfProp(condition, Atom(TConst(good))),
                )),
            )
        publication = basis_publication(basis, writer.pubkey)
        basis_txid = self._submit(writer, publication)
        holder.known[basis_txid] = publication

        claims = [
            self.claimed(
                "conditional-basis", writer, OutPoint(basis_txid, 0), One()
            )
        ]
        for name, condition in conditions.items():
            good = Atom(TConst(ConstRef(basis_txid, f"{name}-good")))
            rule = PConst(ConstRef(basis_txid, f"{name}-exercise"))
            good_out = TypecoinOutput(good, 600, holder.pubkey)
            payment_out = trivial_output(writer.pubkey, price)

            def body(_c, _ins, receipts, rule=rule, condition=condition):
                return IfBind(
                    "got", LolliElim(rule, receipts[1]),
                    IfReturn(condition, TensorIntro(PVar("got"), OneIntro())),
                )

            txn = TypecoinTransaction(
                Basis(), One(), [], [good_out, payment_out],
                obligation_lambda(
                    One(), [], [good_out.receipt(), payment_out.receipt()],
                    body,
                ),
            )
            txid = self._submit(holder, txn)
            claims.append(
                self.claimed(f"conditional-{name}", holder, OutPoint(txid, 0), good)
            )
        return claims

    def _escrow(self) -> list[Claimed]:
        """§7: a prize escrowed 2-of-3, claimed through a signed open
        transaction by whoever proves ∃n. n + 25 = 42 (2 claims)."""
        net, ledger = self.net, self.ledger
        alice = self.client("puzzle-alice")
        bob = self.client("puzzle-bob")
        agents = [
            EscrowAgent(
                key=PrivateKey.from_seed(
                    b"bench-%d-agent-%d" % (self.seed, i)
                ),
                chain=net.chain,
                ledger=ledger,
            )
            for i in range(3)
        ]
        lock = escrow_lock([agent.pubkey for agent in agents])
        target, known, secret = 42, 25, 17

        basis = Basis()
        solution_ref = basis.declare_local(
            "solution", KindDecl(KPi("n", NAT_T, KIND_PROP))
        )
        prize_ref = basis.declare_local("prize", KindDecl(KIND_PROP))
        basis.declare_local(
            "solve",
            PropDecl(Forall(
                "N", NAT_T,
                Lolli(
                    Exists(
                        "x",
                        apply_family(
                            TConst(PLUS), Var("N"), NatLit(known), NatLit(target)
                        ),
                        One(),
                    ),
                    Atom(apply_family(TConst(solution_ref), Var("N"))),
                ),
            )),
        )
        publication = basis_publication(
            basis, agents[0].pubkey, grant=Atom(TConst(prize_ref))
        )
        pub_carrier = build_carrier(
            net.chain, alice.wallet, publication, fee=10_000,
            script_overrides={0: lock},
        )
        net.send(pub_carrier)
        self.confirm()
        check_typecoin_transaction(ledger, publication, world_at(net.chain))
        ledger.register(pub_carrier.txid, publication)
        basis_txid = pub_carrier.txid

        prize_prop = ledger.output(basis_txid, 0).prop
        sol_prop = Exists(
            "n", NAT_T,
            Atom(apply_family(
                TConst(solution_ref.resolved(basis_txid)), Var("n")
            )),
        )
        template = OpenTransaction(
            basis=Basis(),
            grant=One(),
            fixed_inputs=[TypecoinInput(basis_txid, 0, prize_prop, 600)],
            hole_prop=sol_prop,
            hole_amount=600,
            hole_position=1,
            outputs=[
                OpenOutput(sol_prop, 600, alice.pubkey),
                OpenOutput(prize_prop, 600, None),
            ],
            proof=LolliIntro(
                "p", Tensor(prize_prop, sol_prop),
                TensorElim(
                    "x", "y", PVar("p"), TensorIntro(PVar("y"), PVar("x"))
                ),
            ),
        )
        issuer_signature = sign_template(alice.key, template)

        packed = ExistsIntro(
            sol_prop,
            NatLit(secret),
            LolliElim(
                ForallElim(
                    PConst(ConstRef(basis_txid, "solve")), NatLit(secret)
                ),
                ExistsIntro(
                    Exists(
                        "x",
                        apply_family(
                            TConst(PLUS), NatLit(secret), NatLit(known),
                            NatLit(target),
                        ),
                        One(),
                    ),
                    apply_term(Const(PLUS_REFL), NatLit(secret), NatLit(known)),
                    OneIntro(),
                ),
            ),
        )
        sol_out = TypecoinOutput(sol_prop, 600, bob.pubkey)
        sol_txid = self._submit(
            bob,
            TypecoinTransaction(
                Basis(), One(), [], [sol_out],
                obligation_lambda(
                    One(), [], [sol_out.receipt()], lambda *_: packed
                ),
            ),
        )

        solution_input = TypecoinInput(sol_txid, 0, sol_prop, 600)
        instance = template.fill(solution_input, bob.pubkey)
        carrier = build_carrier(
            net.chain, bob.wallet, instance, fee=10_000,
            skip_sign={OutPoint(basis_txid, 0)},
            exclude={OutPoint(t, i) for (t, i) in ledger.outputs},
        )
        signatures = {
            agent.pubkey: agent.consider(
                template, alice.pubkey, issuer_signature,
                solution_input, bob.pubkey, carrier,
                escrow_input_index=0, escrow_script=lock,
                bundle=bob.claim_bundle(OutPoint(sol_txid, 0), sol_prop),
            )
            for agent in agents[:2]
        }
        carrier = assemble_multisig_input(carrier, 0, lock, signatures)
        net.send(carrier)
        self.confirm()
        check_typecoin_transaction(ledger, instance, world_at(net.chain))
        ledger.register(carrier.txid, instance)
        return [
            self.claimed(
                "escrow-solution", bob, OutPoint(carrier.txid, 0), sol_prop
            ),
            self.claimed(
                "escrow-prize", bob, OutPoint(carrier.txid, 1), prize_prop
            ),
        ]
