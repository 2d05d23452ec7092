"""Tests for the whole-chain auditor (the 𝔗 : Σ judgement)."""

import dataclasses

import pytest

from repro.bitcoin.transaction import OutPoint
from repro.core.auditor import audit_chain
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.validate import ValidationFailure
from repro.logic.propositions import One
from repro.lf.walk import convertible

from tests.core.conftest import publish_newcoin
from tests.core.test_batch import issue_to


def full_history(net, bank, alice):
    """Publish basis, issue, transfer — returns the off-chain store."""
    vocab, basis_txid, basis_txn = publish_newcoin(net, bank)
    issue_carrier, issue_txn = issue_to(net, bank, vocab, 10, bank.pubkey)
    transfer = simple_transfer(
        [bank.input_for(OutPoint(issue_carrier.txid, 0))],
        [TypecoinOutput(vocab.coin_prop(10), 600, alice.pubkey)],
    )
    transfer_carrier = bank.submit(transfer)
    net.confirm(1)
    bank.sync()
    store = {
        basis_txid: basis_txn,
        issue_carrier.txid: issue_txn,
        transfer_carrier.txid: transfer,
    }
    return vocab, store, transfer_carrier.txid


def test_clean_history_audits_ok(net, bank, alice):
    vocab, store, tip_txid = full_history(net, bank, alice)
    report = audit_chain(net.chain, store)
    assert report.ok
    assert len(report.accepted) == 3
    # The rebuilt ledger knows the final owner and type.
    entry = report.ledger.output(tip_txid, 0)
    assert convertible(entry.prop, vocab.coin_prop(10))
    assert entry.principal == alice.principal


def test_accepts_in_block_order(net, bank, alice):
    """The store can be handed over in any order; audit follows the chain."""
    vocab, store, tip_txid = full_history(net, bank, alice)
    shuffled = dict(reversed(list(store.items())))
    report = audit_chain(net.chain, shuffled)
    assert report.ok


def test_tampered_transaction_flagged(net, bank, alice):
    vocab, store, tip_txid = full_history(net, bank, alice)
    # Doctor the issuing transaction: the carrier hash no longer matches.
    issue_txid = next(
        txid for txid, txn in store.items()
        if txn.inputs == () and len(txn.basis) == 0
    )
    store[issue_txid] = dataclasses.replace(
        store[issue_txid],
        outputs=(TypecoinOutput(vocab.coin_prop(999), 600, bank.pubkey),),
    )
    report = audit_chain(net.chain, store)
    assert not report.ok
    reasons = " ".join(str(issue) for issue in report.issues)
    assert "does not embed" in reasons or "carrier" in reasons
    # The downstream transfer is tainted too.
    assert len(report.issues) == 2
    assert len(report.accepted) == 1  # only the basis publication survives


def test_strict_mode_raises(net, bank, alice):
    vocab, store, tip_txid = full_history(net, bank, alice)
    issue_txid = next(
        txid for txid, txn in store.items()
        if txn.inputs == () and len(txn.basis) == 0
    )
    store[issue_txid] = dataclasses.replace(
        store[issue_txid],
        outputs=(TypecoinOutput(vocab.coin_prop(999), 600, bank.pubkey),),
    )
    with pytest.raises(Exception):
        audit_chain(net.chain, store, strict=True)


def test_unmatched_store_entries_reported(net, bank, alice):
    vocab, store, _ = full_history(net, bank, alice)
    phantom = simple_transfer(
        [], [TypecoinOutput(One(), 600, alice.pubkey)]
    )
    store[b"\x99" * 32] = phantom  # never confirmed on-chain
    report = audit_chain(net.chain, store)
    assert not report.ok
    assert report.unmatched == [b"\x99" * 32]


def test_empty_store_is_trivially_ok(net, bank):
    report = audit_chain(net.chain, {})
    assert report.ok
    assert report.accepted == []
