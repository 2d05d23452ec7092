#!/usr/bin/env python3
"""Open transactions and type-checking escrow: the puzzle prize of §7.

Alice awards a prize to the first person who can prove ∃n. n + 25 = 42.
Announcing !(solution ⊸ prize) would pay *everyone*; instead:

1. Alice publishes the puzzle vocabulary and escrows the prize under a
   2-of-3 multisig of escrow agents.
2. She signs an *open transaction*: prize in (from escrow), solution in
   (hole), solution out (to Alice), prize out (recipient hole).
3. Bob proves the solution on-chain, fills the holes, and asks the agents.
4. Each honest agent's policy: sign any instance that typechecks.  Two
   signatures unlock the prize — even with one agent compromised.

Run: ``python examples/escrow_puzzle.py``
"""

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint
from repro.core.builder import basis_publication
from repro.core.escrow import (
    EscrowAgent,
    EscrowError,
    OpenOutput,
    OpenTransaction,
    assemble_multisig_input,
    escrow_lock,
    sign_template,
)
from repro.core.overlay import build_carrier
from repro.core.proofs import obligation_lambda
from repro.core.transaction import TypecoinInput, TypecoinOutput, TypecoinTransaction
from repro.core.validate import (
    Ledger,
    check_typecoin_transaction,
    resolve,
    world_at,
)
from repro.core.wallet import TypecoinClient
from repro.crypto.keys import PrivateKey
from repro.lf.basis import Basis, KindDecl, NAT_T, PLUS, PLUS_REFL, PropDecl
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

TARGET, KNOWN, SECRET = 42, 25, 17


def main() -> None:
    net = RegtestNetwork()
    ledger = Ledger()
    alice = TypecoinClient(net, b"puzzle-alice", ledger)
    bob = TypecoinClient(net, b"puzzle-bob", ledger)
    net.fund_wallet(alice.wallet)
    net.fund_wallet(bob.wallet)
    agents = [
        EscrowAgent(
            key=PrivateKey.from_seed(b"puzzle-agent" + bytes([i])),
            chain=net.chain,
            ledger=ledger,
        )
        for i in range(3)
    ]
    agents[2].honest = False  # one agent is compromised
    lock = escrow_lock([agent.pubkey for agent in agents])

    # --- 1. publish the puzzle; escrow the prize --------------------------
    basis = Basis()
    solution_ref = basis.declare_local("solution", KindDecl(KPi("n", NAT_T, KIND_PROP)))
    prize_ref = basis.declare_local("prize", KindDecl(KIND_PROP))
    basis.declare_local(
        "solve",
        PropDecl(Forall(
            "N", NAT_T,
            Lolli(
                Exists(
                    "x",
                    apply_family(TConst(PLUS), Var("N"), NatLit(KNOWN), NatLit(TARGET)),
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
    net.confirm(1)
    check_typecoin_transaction(ledger, publication, world_at(net.chain))
    ledger.register(
        pub_carrier.txid, publication, resolve(pub_carrier.txid, publication)
    )
    bob.known[pub_carrier.txid] = publication
    basis_txid = pub_carrier.txid
    print(f"1. puzzle published; prize escrowed 2-of-3 ({pub_carrier.txid_hex[:16]}…)")

    prize_prop = ledger.output(basis_txid, 0).prop
    solution_res = solution_ref.resolved(basis_txid)
    solve_res = basis_txid  # for readability below
    sol_prop = Exists("n", NAT_T, Atom(apply_family(TConst(solution_res), Var("n"))))

    # --- 2. the signed open transaction ------------------------------------
    template = OpenTransaction(
        basis=Basis(),
        grant=One(),
        fixed_inputs=[TypecoinInput(basis_txid, 0, prize_prop, 600)],
        hole_prop=sol_prop,
        hole_amount=600,
        hole_position=1,
        outputs=[
            OpenOutput(sol_prop, 600, alice.pubkey),
            OpenOutput(prize_prop, 600, None),  # ← the recipient hole
        ],
        proof=LolliIntro(
            "p", Tensor(prize_prop, sol_prop),
            TensorElim("x", "y", PVar("p"), TensorIntro(PVar("y"), PVar("x"))),
        ),
    )
    issuer_signature = sign_template(alice.key, template)
    print("2. Alice signed the open transaction (solution in → prize out)")

    # --- 3. Bob solves and commits his solution on-chain -------------------
    from repro.lf.syntax import ConstRef

    solve_const = PConst(ConstRef(basis_txid, "solve"))
    packed = ExistsIntro(
        sol_prop,
        NatLit(SECRET),
        LolliElim(
            ForallElim(solve_const, NatLit(SECRET)),
            ExistsIntro(
                Exists(
                    "x",
                    apply_family(
                        TConst(PLUS), NatLit(SECRET), NatLit(KNOWN), NatLit(TARGET)
                    ),
                    One(),
                ),
                apply_term(Const(PLUS_REFL), NatLit(SECRET), NatLit(KNOWN)),
                OneIntro(),
            ),
        ),
    )
    sol_out = TypecoinOutput(sol_prop, 600, bob.pubkey)
    sol_txn = TypecoinTransaction(
        Basis(), One(), [], [sol_out],
        obligation_lambda(One(), [], [sol_out.receipt()], lambda *_: packed),
    )
    sol_carrier = bob.submit(sol_txn)
    net.confirm(1)
    bob.sync()
    print(f"3. Bob published his solution (n = {SECRET}) in"
          f" {sol_carrier.txid_hex[:16]}…")

    # --- 4. fill, collect agent signatures, claim ----------------------------
    solution_input = TypecoinInput(sol_carrier.txid, 0, sol_prop, 600)
    instance = template.fill(solution_input, bob.pubkey)
    carrier = build_carrier(
        net.chain, bob.wallet, instance, fee=10_000,
        skip_sign={OutPoint(basis_txid, 0)},
        exclude={OutPoint(t, i) for (t, i) in ledger.outputs},
    )
    signatures = {}
    for agent in agents:
        try:
            signatures[agent.pubkey] = agent.consider(
                template, alice.pubkey, issuer_signature,
                solution_input, bob.pubkey, carrier,
                escrow_input_index=0, escrow_script=lock,
                bundle=bob.claim_bundle(OutPoint(sol_carrier.txid, 0), sol_prop),
            )
            print(f"   agent #{agent.pubkey[:4].hex()} signed")
        except EscrowError as exc:
            print(f"   agent #{agent.pubkey[:4].hex()} refused: {exc}")
        if len(signatures) == 2:
            break
    carrier = assemble_multisig_input(carrier, 0, lock, signatures)
    net.send(carrier)
    net.confirm(1)
    check_typecoin_transaction(ledger, instance, world_at(net.chain))
    ledger.register(carrier.txid, instance, resolve(carrier.txid, instance))
    prize_holder = ledger.output(carrier.txid, 1).principal
    assert prize_holder == bob.principal
    print(f"4. prize claimed by Bob (principal #{prize_holder.hex()[:16]}…) —"
          " one compromised agent tolerated")


if __name__ == "__main__":
    main()
