"""E3 — batch mode amortizes fees and latency (paper §3.2).

"A Bitcoin transaction takes about an hour to be confirmed" and "a typical
transaction fee is 0.0005 bitcoin ... in any kind of automated application
it would add up quickly.  To resolve these problems, Typecoin can be
operated in batch mode."

N credential operations run twice: directly on-chain (one carrier + fee
each) and through a batch server (one deposit + N virtual ops + one
withdrawal).  We report total fees paid and mean per-operation latency
under the canonical 600 s block interval.
"""

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint
from repro.core.batch import BatchServer, authorize
from repro.core.builder import basis_publication, build_with_payload, simple_transfer
from repro.core.currency import issue_proof, newcoin_basis
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TypecoinOutput, TypecoinTransaction
from repro.core.validate import Ledger
from repro.core.wallet import TypecoinClient
from repro.lf.basis import Basis
from repro.logic.proofterms import LolliIntro, PVar
from repro.logic.propositions import One

N_OPERATIONS = 25
FEE = 10_000  # satoshis per carrier — ~0.0005 BTC scaled to our regtest
BLOCK_INTERVAL = 600.0  # seconds; the realistic confirmation latency unit
CONFIRMATIONS = 6  # §1 item 6: "usually taken as five" subsequent blocks


def publish_newcoin(net, bank):
    basis, vocab = newcoin_basis(bank.principal_term, bank.principal_term)
    txn = basis_publication(basis, bank.pubkey)
    carrier = bank.submit(txn)
    net.confirm(1)
    bank.sync()
    return vocab.resolved(carrier.txid), carrier.txid


def issue_coins(net, bank, vocab, amount, recipient_pubkey, sats=600):
    out = TypecoinOutput(vocab.coin_prop(amount), sats, recipient_pubkey)
    txn = build_with_payload(
        Basis(), One(), [], [out],
        lambda payload: obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _i, _r: tensor_intro_all([
                issue_proof(
                    vocab, amount,
                    bank.affirm_affine(vocab.print_prop(amount), payload),
                )
            ]),
        ),
    )
    carrier = bank.submit(txn)
    net.confirm(1)
    bank.sync()
    return carrier, txn


def run_direct(net, bank, vocab):
    """N on-chain self-transfers: one carrier, one fee, one block each."""
    carrier, _ = issue_coins(net, bank, vocab, 1, bank.pubkey)
    outpoint = OutPoint(carrier.txid, 0)
    total_fees = FEE  # the issuance itself
    blocks_waited = CONFIRMATIONS
    for _ in range(N_OPERATIONS):
        txn = simple_transfer(
            [bank.input_for(outpoint)],
            [TypecoinOutput(vocab.coin_prop(1), 600, bank.pubkey)],
        )
        carrier = bank.submit(txn, fee=FEE)
        net.confirm(1)
        bank.sync()
        outpoint = OutPoint(carrier.txid, 0)
        total_fees += FEE
        blocks_waited += CONFIRMATIONS
    return total_fees, blocks_waited


def run_batched(net, bank, vocab, ledger):
    """One deposit, N virtual self-transfers, one withdrawal."""
    server = BatchServer(net, b"bench-batch-server", ledger)
    net.fund_wallet(server.client.wallet)
    carrier, _ = issue_coins(net, bank, vocab, 1, server.pubkey)
    bundle = bank.claim_bundle(OutPoint(carrier.txid, 0), vocab.coin_prop(1))
    held = server.deposit(bundle, bank.pubkey)
    total_fees = FEE  # the issuance/deposit carrier
    blocks_waited = CONFIRMATIONS

    for _ in range(N_OPERATIONS):
        txn = TypecoinTransaction(
            Basis(), One(),
            [server.input_for(held)],
            [TypecoinOutput(vocab.coin_prop(1), 600, bank.pubkey)],
            LolliIntro("x", vocab.coin_prop(1), PVar("x")),
        )
        held = OutPoint(
            server.transact(txn, {bank.principal: authorize(bank.key, txn)}), 0
        )
        # No fee, no block: the server just records it.

    server.withdraw(held, fee=FEE)
    net.confirm(1)
    server.sync()
    total_fees += FEE
    blocks_waited += CONFIRMATIONS
    return total_fees, blocks_waited


def bench_e3_direct_vs_batched():
    net = RegtestNetwork()
    ledger = Ledger()
    bank = TypecoinClient(net, b"bench-bank", ledger)
    net.fund_wallet(bank.wallet, blocks=4)
    vocab, _ = publish_newcoin(net, bank)

    direct_fees, direct_blocks = run_direct(net, bank, vocab)
    batched_fees, batched_blocks = run_batched(net, bank, vocab, ledger)

    direct_latency = direct_blocks * BLOCK_INTERVAL / (N_OPERATIONS + 1)
    batched_latency = batched_blocks * BLOCK_INTERVAL / (N_OPERATIONS + 1)

    print(f"\nE3: {N_OPERATIONS} credential operations, direct vs batch mode")
    print(f"{'':14}{'total fees (sat)':>18}{'mean latency (s/op)':>22}")
    print(f"{'direct':14}{direct_fees:>18,}{direct_latency:>22.0f}")
    print(f"{'batched':14}{batched_fees:>18,}{batched_latency:>22.0f}")
    print(f"{'improvement':14}{direct_fees / batched_fees:>17.1f}x"
          f"{direct_latency / batched_latency:>21.1f}x")

    # Shape: batch mode pays O(1) fees instead of O(N), and amortizes the
    # hour-scale confirmation wait across all N operations.
    assert batched_fees * 5 < direct_fees
    assert batched_latency * 5 < direct_latency

