"""F3 — the Figure 3 proof term, end to end (paper §6.1).

The most intricate artifact in the paper: purchasing newcoins through a
receipt, a published affirmation, the if/say commutation, two ifweakens,
and the term-limited issue rule.  We run the full scenario on regtest
(appoint banker → publish offer → purchase → revoke → purchase fails) and
validate the Figure 3 transaction.
"""

import sys
import pathlib
import time

# The repo root, so the ``tests`` package resolves outside pytest too.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from repro.bitcoin.regtest import RegtestNetwork
from repro.core.validate import (
    Ledger,
    ValidationFailure,
    check_typecoin_transaction,
    world_at,
)
from repro.core.wallet import ClientError, TypecoinClient

from tests.core.test_currency import TestFigure3 as _Figure3  # noqa: E402


def build_scenario():
    net = RegtestNetwork()
    ledger = Ledger()
    bank = TypecoinClient(net, b"f3-bank", ledger)
    alice = TypecoinClient(net, b"f3-alice", ledger)
    net.fund_wallet(bank.wallet)
    net.fund_wallet(alice.wallet)
    fixture = _Figure3()
    (vocab, term_end, n_btc, n_newcoins, revocation, order, appointment,
     revocation_tx) = fixture.setup_offer(net, bank, alice)
    txn = fixture.purchase_txn(
        vocab, bank, alice, term_end, n_btc, n_newcoins, revocation,
        order, appointment,
    )
    return net, ledger, bank, alice, txn, vocab, n_newcoins


def bench_f3_figure3_validation():
    net, ledger, bank, alice, txn, vocab, n_newcoins = build_scenario()
    world = world_at(net.chain)

    start = time.perf_counter()
    check_typecoin_transaction(ledger, txn, world)
    elapsed = time.perf_counter() - start

    # End-to-end: actually submit, confirm, and inspect the coin.
    carrier = alice.submit(txn)
    net.confirm(1)
    alice.sync()
    from repro.lf.walk import convertible

    entry = alice.ledger.output(carrier.txid, 0)
    assert convertible(entry.prop, vocab.coin_prop(n_newcoins))

    print("\nF3: the Figure 3 purchase validates in"
          f" ~{elapsed * 1000:.1f} ms and mints"
          f" coin {n_newcoins} on-chain ({carrier.txid_hex[:16]}…)")
    print(f"   Bitcoin level saw {len(carrier.serialize())} bytes; the"
          " proof term itself stayed off-chain")


def revocation_flips_validity():
    """Does spending R turn the checked Figure 3 transaction invalid?"""
    net = RegtestNetwork()
    ledger = Ledger()
    bank = TypecoinClient(net, b"f3b-bank", ledger)
    alice = TypecoinClient(net, b"f3b-alice", ledger)
    net.fund_wallet(bank.wallet)
    net.fund_wallet(alice.wallet)
    fixture = _Figure3()
    (vocab, term_end, n_btc, n_newcoins, revocation, order, appointment,
     revocation_tx) = fixture.setup_offer(net, bank, alice)
    txn = fixture.purchase_txn(
        vocab, bank, alice, term_end, n_btc, n_newcoins, revocation,
        order, appointment,
    )
    check_typecoin_transaction(ledger, txn, world_at(net.chain))

    # Revoke: the banker spends R.
    from repro.bitcoin.standard import p2pkh_script
    from repro.bitcoin.transaction import OutPoint, TxOut
    from repro.bitcoin.wallet import Spendable

    entry = net.chain.utxos.get(OutPoint(revocation_tx.txid, 0))
    revoke = bank.wallet.create_transaction(
        net.chain, [TxOut(600, p2pkh_script(bank.wallet.key_hash))],
        fee=400,
        extra_inputs=[Spendable(
            OutPoint(revocation_tx.txid, 0), entry.output, entry.height,
            entry.is_coinbase,
        )],
    )
    net.send(revoke)
    net.confirm(1)
    try:
        check_typecoin_transaction(ledger, txn, world_at(net.chain))
        return False
    except ValidationFailure:
        return True


def bench_f3_revocation_flips_validity():
    """After the banker spends R the very same proof term is rejected."""
    assert revocation_flips_validity()
    print("\nF3b: after spending R, the identical Figure 3 transaction is"
          " rejected — revocation works with no signature from the buyer")

