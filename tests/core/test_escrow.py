"""Tests for §7: open transactions and type-checking escrow.

The puzzle contest: Alice escrows a prize with three agents, publishes an
open transaction paying the prize for a solution, and Bob — who can prove
∃n. plus n 25 42 — claims it with signatures from two of the three agents.
"""

import pytest

from repro.bitcoin.transaction import OutPoint
from repro.core.builder import basis_publication, simple_transfer
from repro.core.escrow import (
    EscrowAgent,
    EscrowError,
    OpenOutput,
    OpenTransaction,
    assemble_multisig_input,
    escrow_lock,
    multisig_partial_signature,
    sign_template,
    template_signature_valid,
)
from repro.core.overlay import build_carrier
from repro.core.proofs import obligation_lambda
from repro.core.transaction import TypecoinInput, TypecoinOutput, TypecoinTransaction
from repro.core.validate import Ledger, resolve
from repro.core.wallet import TypecoinClient
from repro.crypto.keys import PrivateKey
from repro.lf.basis import (
    Basis,
    KindDecl,
    NAT_T,
    PLUS,
    PLUS_REFL,
    PropDecl,
)
from repro.lf.syntax import (
    Const,
    KIND_PROP,
    KPi,
    NatLit,
    TConst,
    Var,
    apply_family,
    apply_term,
)
from repro.logic.proofterms import (
    ExistsIntro,
    ForallElim,
    LolliElim,
    LolliIntro,
    OneIntro,
    PConst,
    PVar,
    TensorElim,
    TensorIntro,
)
from repro.logic.propositions import Atom, Exists, Forall, Lolli, One, Tensor

TARGET = 42
KNOWN = 25  # the puzzle: find n with n + 25 = 42


@pytest.fixture
def agents(net, ledger):
    keys = [PrivateKey.from_seed(b"agent" + bytes([i])) for i in range(3)]
    return [
        EscrowAgent(key=key, chain=net.chain, ledger=ledger) for key in keys
    ]


def puzzle_basis():
    """solution : nat → prop with the solve rule; prize : prop."""
    basis = Basis()
    solution = basis.declare_local("solution", KindDecl(KPi("n", NAT_T, KIND_PROP)))
    prize = basis.declare_local("prize", KindDecl(KIND_PROP))

    def sol(v):
        return Atom(apply_family(TConst(solution), v))

    solve = basis.declare_local(
        "solve",
        PropDecl(
            Forall(
                "N", NAT_T,
                Lolli(
                    Exists(
                        "x",
                        apply_family(
                            TConst(PLUS), Var("N"), NatLit(KNOWN), NatLit(TARGET)
                        ),
                        One(),
                    ),
                    sol(Var("N")),
                ),
            )
        ),
    )
    return basis, solution, prize, solve


def setup_contest(net, ledger, alice, agents):
    """Alice publishes the puzzle and escrows the prize; returns context."""
    basis, solution, prize, solve = puzzle_basis()
    prize_prop_local = Atom(TConst(prize))

    lock = escrow_lock([agent.pubkey for agent in agents])
    publication = basis_publication(basis, agents[0].pubkey, grant=prize_prop_local)
    carrier = alice.submit(publication)
    # Override output 0's script to the 2-of-3 escrow lock.
    # (basis_publication locks to agents[0]; rebuild with the override.)
    return basis, solution, prize, solve, publication, carrier, lock


class TestTemplates:
    def test_fill_checks_hole_type(self, net, ledger, alice):
        basis, solution, prize, solve = puzzle_basis()
        sol_prop = Exists("n", NAT_T, Atom(apply_family(TConst(solution), Var("n"))))
        template = OpenTransaction(
            basis=Basis(),
            grant=One(),
            fixed_inputs=[],
            hole_prop=sol_prop,
            hole_amount=600,
            hole_position=0,
            outputs=[OpenOutput(sol_prop, 600, alice.pubkey)],
            proof=LolliIntro("p", sol_prop, PVar("p")),
        )
        wrong = TypecoinInput(b"\x01" * 32, 0, One(), 600)
        with pytest.raises(EscrowError, match="does not match"):
            template.fill(wrong, alice.pubkey)
        wrong_amount = TypecoinInput(b"\x01" * 32, 0, sol_prop, 700)
        with pytest.raises(EscrowError, match="amount"):
            template.fill(wrong_amount, alice.pubkey)

    def test_template_signature(self, net, ledger, alice):
        basis, solution, prize, solve = puzzle_basis()
        sol_prop = Exists("n", NAT_T, Atom(apply_family(TConst(solution), Var("n"))))
        template = OpenTransaction(
            basis=Basis(), grant=One(), fixed_inputs=[],
            hole_prop=sol_prop, hole_amount=600, hole_position=0,
            outputs=[OpenOutput(sol_prop, 600, alice.pubkey)],
            proof=LolliIntro("p", sol_prop, PVar("p")),
        )
        signature = sign_template(alice.key, template)
        assert template_signature_valid(alice.pubkey, template, signature)
        assert not template_signature_valid(
            alice.pubkey, template, b"\x01" * 64
        )

    def test_multisig_assembly_requires_threshold(self, net, agents):
        lock = escrow_lock([agent.pubkey for agent in agents])
        from repro.bitcoin.transaction import Transaction, TxIn, TxOut
        from repro.bitcoin.script import Script

        tx = Transaction(
            [TxIn(OutPoint(b"\x01" * 32, 0))], [TxOut(1000, Script())]
        )
        sig0 = multisig_partial_signature(agents[0].key, tx, 0, lock)
        with pytest.raises(EscrowError, match="requires"):
            assemble_multisig_input(tx, 0, lock, {agents[0].pubkey: sig0})
        sig1 = multisig_partial_signature(agents[1].key, tx, 0, lock)
        assembled = assemble_multisig_input(
            tx, 0, lock, {agents[0].pubkey: sig0, agents[1].pubkey: sig1}
        )
        assert len(assembled.vin[0].script_sig.elements) == 3  # OP_0 + 2 sigs


class TestPuzzleContest:
    def run_contest(self, net, ledger, alice, bob, agents, sabotage=0):
        """The full §7 flow; ``sabotage`` compromises that many agents."""
        for agent in agents[:sabotage]:
            agent.honest = False

        # --- Alice publishes the puzzle basis and escrows the prize -------
        basis, solution_ref, prize_ref, solve_ref = puzzle_basis()
        lock = escrow_lock([agent.pubkey for agent in agents])
        prize_local = Atom(TConst(prize_ref))
        publication = basis_publication(basis, agents[0].pubkey, grant=prize_local)
        pub_carrier = build_carrier(
            net.chain, alice.wallet, publication, fee=10_000,
            script_overrides={0: lock},
        )
        net.send(pub_carrier)
        net.confirm(1)
        basis_txid = pub_carrier.txid
        # Everyone sharing the ledger learns the publication.
        from repro.core.validate import check_typecoin_transaction, world_at

        check_typecoin_transaction(ledger, publication, world_at(net.chain))
        ledger.register(
            basis_txid, publication, resolve(basis_txid, publication)
        )
        alice.known[basis_txid] = publication
        bob.known[basis_txid] = publication

        prize_prop = ledger.output(basis_txid, 0).prop
        solution_res = solution_ref.resolved(basis_txid)
        solve_res = solve_ref.resolved(basis_txid)
        sol_prop = Exists(
            "n", NAT_T, Atom(apply_family(TConst(solution_res), Var("n")))
        )

        # --- Alice signs the open transaction ------------------------------
        template = OpenTransaction(
            basis=Basis(),
            grant=One(),
            fixed_inputs=[
                TypecoinInput(basis_txid, 0, prize_prop, 600)
            ],
            hole_prop=sol_prop,
            hole_amount=600,
            hole_position=1,
            outputs=[
                OpenOutput(sol_prop, 600, alice.pubkey),  # solution → Alice
                OpenOutput(prize_prop, 600, None),  # prize → whoever
            ],
            proof=LolliIntro(
                "p", Tensor(prize_prop, sol_prop),
                TensorElim(
                    "x", "y", PVar("p"), TensorIntro(PVar("y"), PVar("x"))
                ),
            ),
        )
        issuer_signature = sign_template(alice.key, template)

        # --- Bob proves the solution and publishes it ---------------------
        packed = ExistsIntro(
            Exists(
                "n", NAT_T, Atom(apply_family(TConst(solution_res), Var("n")))
            ),
            NatLit(17),
            LolliElim(
                ForallElim(PConst(solve_res), NatLit(17)),
                ExistsIntro(
                    Exists(
                        "x",
                        apply_family(
                            TConst(PLUS), NatLit(17), NatLit(KNOWN), NatLit(TARGET)
                        ),
                        One(),
                    ),
                    apply_term(Const(PLUS_REFL), NatLit(17), NatLit(KNOWN)),
                    OneIntro(),
                ),
            ),
        )
        sol_out = TypecoinOutput(sol_prop, 600, bob.pubkey)
        sol_txn = TypecoinTransaction(
            Basis(), One(), [], [sol_out],
            obligation_lambda(
                One(), [], [sol_out.receipt()], lambda _c, _i, _r: packed
            ),
        )
        sol_carrier = bob.submit(sol_txn)
        net.confirm(1)
        bob.sync()
        sol_txid = sol_carrier.txid

        # --- Bob fills the template and builds the carrier ----------------
        solution_input = TypecoinInput(sol_txid, 0, sol_prop, 600)
        instance = template.fill(solution_input, bob.pubkey)
        prize_outpoint = OutPoint(basis_txid, 0)
        carrier = build_carrier(
            net.chain, bob.wallet, instance, fee=10_000,
            skip_sign={prize_outpoint},
            exclude={OutPoint(txid, idx) for (txid, idx) in ledger.outputs},
        )

        # --- Agents consider; Bob needs two signatures ----------------------
        signatures = {}
        refusals = 0
        for agent in agents:
            try:
                signatures[agent.pubkey] = agent.consider(
                    template,
                    alice.pubkey,
                    issuer_signature,
                    solution_input,
                    bob.pubkey,
                    carrier,
                    escrow_input_index=0,
                    escrow_script=lock,
                    bundle=bob.claim_bundle(OutPoint(sol_txid, 0), sol_prop),
                )
            except EscrowError:
                refusals += 1
            if len(signatures) == 2:
                break
        if len(signatures) < 2:
            return None, refusals

        carrier = assemble_multisig_input(carrier, 0, lock, signatures)
        net.send(carrier)
        net.confirm(1)
        check_typecoin_transaction(ledger, instance, world_at(net.chain))
        ledger.register(carrier.txid, instance, resolve(carrier.txid, instance))
        return carrier, refusals

    def test_bob_claims_prize(self, net, ledger, alice, bob, agents):
        carrier, refusals = self.run_contest(net, ledger, alice, bob, agents)
        assert carrier is not None
        assert refusals == 0
        prize_entry = ledger.output(carrier.txid, 1)
        assert prize_entry.principal == bob.principal

    def test_one_compromised_agent_tolerated(self, net, ledger, alice, bob, agents):
        """2-of-3: "participants can tolerate one of the three agents
        becoming compromised." """
        carrier, refusals = self.run_contest(
            net, ledger, alice, bob, agents, sabotage=1
        )
        assert carrier is not None
        assert refusals == 1

    def test_two_compromised_agents_halt(self, net, ledger, alice, bob, agents):
        carrier, refusals = self.run_contest(
            net, ledger, alice, bob, agents, sabotage=2
        )
        assert carrier is None
        assert refusals == 2

    def test_agent_rejects_bad_solution(self, net, ledger, alice, bob, agents):
        """An instance whose 'solution' txout has the wrong type is refused
        — "the transaction is only valid if his txout really does have the
        solution." """
        # Run a full setup but offer a One()-typed txout as the solution.
        basis, solution_ref, prize_ref, solve_ref = puzzle_basis()
        lock = escrow_lock([agent.pubkey for agent in agents])
        prize_local = Atom(TConst(prize_ref))
        publication = basis_publication(basis, agents[0].pubkey, grant=prize_local)
        pub_carrier = build_carrier(
            net.chain, alice.wallet, publication, fee=10_000,
            script_overrides={0: lock},
        )
        net.send(pub_carrier)
        net.confirm(1)
        from repro.core.validate import check_typecoin_transaction, world_at

        check_typecoin_transaction(ledger, publication, world_at(net.chain))
        ledger.register(
            pub_carrier.txid, publication, resolve(pub_carrier.txid, publication)
        )
        bob.known[pub_carrier.txid] = publication
        basis_txid = pub_carrier.txid

        prize_prop = ledger.output(basis_txid, 0).prop
        solution_res = solution_ref.resolved(basis_txid)
        sol_prop = Exists(
            "n", NAT_T, Atom(apply_family(TConst(solution_res), Var("n")))
        )
        template = OpenTransaction(
            basis=Basis(), grant=One(),
            fixed_inputs=[TypecoinInput(basis_txid, 0, prize_prop, 600)],
            hole_prop=sol_prop, hole_amount=600, hole_position=1,
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

        # Bob publishes a trivial txout and lies about its type.
        junk_out = TypecoinOutput(One(), 600, bob.pubkey)
        junk_txn = simple_transfer([], [junk_out])
        junk_carrier = bob.submit(junk_txn)
        net.confirm(1)
        bob.sync()

        lying_input = TypecoinInput(junk_carrier.txid, 0, sol_prop, 600)
        instance = template.fill(lying_input, bob.pubkey)
        carrier = build_carrier(
            net.chain, bob.wallet, instance, fee=10_000,
            skip_sign={OutPoint(basis_txid, 0)},
            exclude={OutPoint(txid, idx) for (txid, idx) in ledger.outputs},
        )
        with pytest.raises(EscrowError, match="typecheck|claim"):
            agents[0].consider(
                template, alice.pubkey, issuer_signature, lying_input,
                bob.pubkey, carrier, 0, lock,
                bundle=bob.claim_bundle(
                    OutPoint(junk_carrier.txid, 0), sol_prop
                ),
            )
