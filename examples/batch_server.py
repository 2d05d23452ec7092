#!/usr/bin/env python3
"""Batch mode: a credential server amortizing fees and latency (§3.2).

The university IT department runs a batch-mode server for campus Typecoin
use.  The bank issues meal credits (newcoins) straight to the server;
students swap them all day with zero fees and zero confirmation delay; a
graduating student withdraws her balance to her own key — one on-chain
transaction batching the whole virtual history.

"Note that batch mode does not compromise the trustlessness of the
network" — the final withdrawal is a perfectly ordinary Typecoin
transaction that any third party can verify with the §3 protocol.

The server keeps a journal, and a second server over it — a restart —
holds what the first held: deposits and virtual transactions are
re-verified, and the withdrawal is not submitted again.

Run: ``python examples/batch_server.py``
"""

import os
import tempfile

from repro.bitcoin.transaction import OutPoint
from repro.core.batch import BatchServer, WriteThroughRequired, authorize
from repro.core.builder import basis_publication, build_with_payload
from repro.core.currency import issue_proof, newcoin_basis, split_proof
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TypecoinOutput, TypecoinTransaction
from repro.core.validate import Ledger
from repro.core.verifier import verify_claim
from repro.core.wallet import TypecoinClient
from repro.lf.basis import Basis
from repro.lf.syntax import NatLit
from repro.logic.conditions import Before
from repro.logic.proofterms import IfReturn, LolliIntro, PVar
from repro.logic.propositions import One


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        run(os.path.join(scratch, "batch.journal"))


def run(journal: str) -> None:
    from repro.bitcoin.regtest import RegtestNetwork

    net = RegtestNetwork()
    ledger = Ledger()
    bank = TypecoinClient(net, b"batch-bank", ledger)
    student_a = TypecoinClient(net, b"batch-student-a", ledger)
    student_b = TypecoinClient(net, b"batch-student-b", ledger)
    net.fund_wallet(bank.wallet)
    server = BatchServer(net, b"batch-it-dept", ledger, journal_path=journal)
    net.fund_wallet(server.client.wallet)

    # --- publish the meal-credit currency and issue to the server ---------
    basis, vocab = newcoin_basis(bank.principal_term, bank.principal_term)
    pub = bank.submit(basis_publication(basis, bank.pubkey))
    net.confirm(1)
    bank.sync()
    vocab = vocab.resolved(pub.txid)

    out = TypecoinOutput(vocab.coin_prop(20), 1_800, server.pubkey)
    issue = build_with_payload(
        Basis(), One(), [], [out],
        lambda payload: obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _i, _r: tensor_intro_all([
                issue_proof(
                    vocab, 20,
                    bank.affirm_affine(vocab.print_prop(20), payload),
                )
            ]),
        ),
    )
    issue_carrier = bank.submit(issue)
    net.confirm(1)
    bank.sync()
    bundle = bank.claim_bundle(OutPoint(issue_carrier.txid, 0), vocab.coin_prop(20))
    coin_a = server.deposit(bundle, student_a.pubkey)
    print(f"deposited: 20 meal credits for student A (held at {coin_a})")

    # --- instant, free, off-chain transactions -----------------------------
    # A virtual transaction is an ordinary Typecoin transaction the server
    # records instead of submitting; its proof is A ⊸ B.
    height_before = net.chain.height
    split = TypecoinTransaction(
        Basis(), One(),
        [server.input_for(coin_a)],
        [
            TypecoinOutput(vocab.coin_prop(12), 1_000, student_a.pubkey),
            TypecoinOutput(vocab.coin_prop(8), 800, student_b.pubkey),
        ],
        LolliIntro("x", vocab.coin_prop(20), split_proof(vocab, 12, 8, PVar("x"))),
    )
    split_hash = server.transact(
        split, {student_a.principal: authorize(student_a.key, split)}
    )
    print("student A paid student B 8 credits — no fee, no block, instant")
    assert net.chain.height == height_before

    # Output 1 of the split is B's, named as [txid/this] names it.
    coin_b = OutPoint(split_hash, 1)
    # Anyone may ask about a resource: the server answers from its own
    # records (§3.2), with no chain lookup.
    assert server.query(coin_b) == split.outputs[1]
    # The server refuses conditional discharges (must write through, §5).
    risky = TypecoinTransaction(
        Basis(), One(),
        [server.input_for(coin_b)],
        [TypecoinOutput(vocab.coin_prop(8), 800, student_b.pubkey)],
        LolliIntro(
            "x", vocab.coin_prop(8),
            IfReturn(Before(NatLit(2_000_000_000)), PVar("x")),
        ),
    )
    try:
        server.transact(
            risky, {student_b.principal: authorize(student_b.key, risky)}
        )
        raise SystemExit("BUG: conditional accepted in batch mode")
    except WriteThroughRequired as exc:
        print(f"conditional transaction refused ({exc}) — write-through")

    # --- withdrawal: one on-chain transaction for the whole history --------
    carrier = server.withdraw(coin_b)
    assert server.query(coin_b) is None  # withdrawn: no longer held here
    net.confirm(1)
    server.sync()
    print(f"student B graduated: withdrawal carrier"
          f" {carrier.txid_hex[:16]}… routes coin 8 to her key and"
          " the rest back to the server")

    # --- a restart: the journal replays to the same holdings ---------------
    height = net.chain.height
    restarted = BatchServer(net, b"batch-it-dept", Ledger(), journal_path=journal)
    assert server.holdings_of(student_a.principal)  # A's 12 credits
    for student in (student_a, student_b):
        held = server.holdings_of(student.principal)
        assert restarted.holdings_of(student.principal) == held
    assert net.chain.height == height and not net.mempool
    print("a restarted server replayed its journal to the same holdings,"
          " submitting nothing")

    # --- any third party can verify the withdrawn txout --------------------
    claim = server.client.claim_bundle(
        OutPoint(carrier.txid, 0), vocab.coin_prop(8)
    )
    verify_claim(net.chain, claim)
    print("a third-party verifier accepted the withdrawn resource —"
          " batch mode never compromised trustlessness")


if __name__ == "__main__":
    main()
