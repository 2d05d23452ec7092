"""E7 — Typecoin specializes to a practical currency (paper §2, §6).

"Observe that we can specialize Typecoin back to a crypto-currency ...  a
more practical encoding uses an indexed type coin(n), with rules
coin(m+n) ⊸ coin(m) ⊗ coin(n) and vice versa."

We validate an indexed-coin split transaction, and count how much proof
checking a chain of alternating split/merge operations costs — the
workload a newcoin-denominated application would generate.
"""

import time

from repro.core.currency import merge_proof, newcoin_basis, split_proof
from repro.core.proofs import obligation_lambda
from repro.core.validate import Ledger, check_typecoin_transaction, resolve
from repro.core.transaction import TypecoinInput, TypecoinOutput, TypecoinTransaction
from repro.core.builder import basis_publication
from repro.lf.basis import Basis
from repro.lf.syntax import PrincipalLit
from repro.logic.conditions import WorldView
from repro.logic.checker import CheckerContext, infer
from repro.logic.proofterms import LolliIntro, PVar

from obs_harness import counted

BANK = PrincipalLit(b"\xbb" * 20)
PUBKEY = b"\x02" + b"\x77" * 32
WORLD = WorldView.at_time(1_000_000_000)
CHAIN_ROUNDS = (1, 4, 16, 64)


def make_ledger():
    basis, vocab = newcoin_basis(BANK, BANK)
    publication = basis_publication(basis, PUBKEY, grant=vocab.coin_prop(1024))
    ledger = Ledger()
    check_typecoin_transaction(ledger, publication, WORLD)
    txid = b"\x01" * 32
    ledger.register(txid, publication, resolve(txid, publication))
    return ledger, vocab.resolved(txid), txid


def split_txn(vocab, txid, n, m):
    inp = TypecoinInput(txid, 0, vocab.coin_prop(n + m), 600)
    outs = [
        TypecoinOutput(vocab.coin_prop(n), 300, PUBKEY),
        TypecoinOutput(vocab.coin_prop(m), 300, PUBKEY),
    ]
    proof = obligation_lambda(
        __one__(), [inp.prop], [o.receipt() for o in outs],
        lambda _c, ins, _r: split_proof(vocab, n, m, ins[0]),
    )
    return TypecoinTransaction(Basis(), __one__(), [inp], outs, proof)


def __one__():
    from repro.logic.propositions import One

    return One()


def chained_proof(vocab, rounds):
    """coin(2^k) split and re-merged ``rounds`` times, as one proof term."""
    total = 1024

    def body(acc, step):
        if step == rounds:
            return acc
        half = total // 2
        split = split_proof(vocab, half, total - half, acc)
        from repro.logic.proofterms import TensorElim

        return TensorElim(
            f"l{step}", f"r{step}", split,
            body(
                merge_proof(
                    vocab, half, total - half,
                    PVar(f"l{step}"), PVar(f"r{step}"),
                ),
                step + 1,
            ),
        )

    return LolliIntro("c", vocab.coin_prop(total), body(PVar("c"), 0))


def bench_e7_transaction_check_throughput():
    """Full transaction validation (formation judgement) per §6 split."""
    ledger, vocab, txid = make_ledger()
    txn = split_txn(vocab, txid, 700, 324)

    start = time.perf_counter()
    check_typecoin_transaction(ledger, txn, WORLD)
    elapsed = time.perf_counter() - start
    print("\nE7a: one indexed-coin split transaction fully validates in"
          f" ~{elapsed * 1000:.1f} ms")


def bench_e7_split_merge_chain_scaling():
    """Proof-checking cost for alternating split/merge chains."""
    ledger, vocab, txid = make_ledger()
    ctx = CheckerContext(basis=ledger.global_basis)

    nodes, timings = {}, {}
    for rounds in CHAIN_ROUNDS:
        proof = chained_proof(vocab, rounds)
        start = time.perf_counter()
        _, work = counted(("proof.nodes_total",), infer, ctx, proof)
        timings[rounds] = time.perf_counter() - start
        nodes[rounds] = work["proof.nodes_total"]

    print("\nE7b: proof-checking cost vs split/merge chain length")
    print(f"{'rounds':>8} {'proof nodes':>12} {'check time':>12}")
    for rounds in CHAIN_ROUNDS:
        print(f"{rounds:>8} {nodes[rounds]:>12} {timings[rounds] * 1000:>10.2f}ms")
    # Linear in proof size: every split/merge round checks the same number
    # of proof nodes, n(r) = n(1) + (r − 1)·step.
    step = (nodes[4] - nodes[1]) // 3
    assert step > 0
    for rounds in CHAIN_ROUNDS:
        assert nodes[rounds] == nodes[1] + (rounds - 1) * step, (rounds, nodes)

