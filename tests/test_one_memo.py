"""A derived fact of an immutable Bitcoin object is kept on the object.

A script's encoding and class, a transaction's and a block's
context-free verdicts and a block's median time past are each computed
once and kept where they belong (``functools.cached_property`` on the
object, a field on the index entry).  So nothing under
``src/repro/bitcoin/`` pokes an object's ``__dict__``, the keys of the
hand-rolled memos that went (``UTXOEntry``'s size and tags) are spelt
nowhere in ``src/``, and when eight nodes admit and connect one
transaction, each of its scripts is encoded and classified once.
"""

import re
from functools import cached_property
from pathlib import Path

import pytest

from repro.bitcoin import standard
from repro.bitcoin.miner import Miner
from repro.bitcoin.network import Simulation, build_network
from repro.bitcoin.population import fund_wallets
from repro.bitcoin.script import Script
from repro.bitcoin.transaction import TxOut
from repro.bitcoin.wallet import Wallet

SRC = Path(__file__).resolve().parents[1] / "src"
RETIRED_KEYS = ('"_size"', '"_tags"', "'_size'", "'_tags'")


def _spelt(pattern: str, paths) -> list[str]:
    return [
        f"{path.relative_to(SRC)}: {match.group(0)}"
        for path in paths
        for match in re.finditer(pattern, path.read_text())
    ]


def test_no_dict_poke_under_bitcoin():
    paths = sorted((SRC / "repro" / "bitcoin").rglob("*.py"))
    assert _spelt(r"__dict__", paths) == []


def test_no_retired_memo_key_is_spelt():
    pattern = "|".join(re.escape(key) for key in RETIRED_KEYS)
    assert _spelt(pattern, sorted(SRC.rglob("*.py"))) == []


@pytest.fixture
def derived(monkeypatch):
    """Every script encoded and every script classified, in order."""
    encoded, classified = [], []
    encode, classify = Script._encoding.func, standard._classify

    def counting_encode(script):
        encoded.append(script)
        return encode(script)

    def counting_classify(script):
        classified.append(script)
        return classify(script)

    memo = cached_property(counting_encode)
    memo.__set_name__(Script, "_encoding")
    monkeypatch.setattr(Script, "_encoding", memo)
    monkeypatch.setattr(standard, "_classify", counting_classify)
    return encoded, classified


def test_eight_nodes_derive_each_fact_of_a_transaction_once(derived):
    encoded, classified = derived
    sim = Simulation(seed=5)
    nodes = build_network(sim, 8)
    payer = Wallet.from_seed(b"one-memo-payer")
    for block in fund_wallets([payer.key_hash]):
        for node in nodes:
            assert node.chain.add_block(block)
    del encoded[:], classified[:]
    tx = payer.create_transaction(
        nodes[0].chain,
        [TxOut(30_000, standard.p2pkh_script(payer.key_hash))],
        fee=10_000,
    )
    assert nodes[0].submit_transaction(tx)
    sim.run_until(sim.now + 120.0)
    assert all(tx.txid in node.mempool for node in nodes)
    block = Miner(nodes[0].chain, b"\x07" * 20).assemble(nodes[0].mempool)
    nodes[0].submit_block(block)
    sim.run_until(sim.now + 120.0)
    assert all(node.chain.tip.block.hash == block.hash for node in nodes)

    own = [txin.script_sig for txin in tx.vin] + [o.script_pubkey for o in tx.vout]
    assert [sum(s is script for s in encoded) for script in own] == [1] * len(own)
    outputs = [o.script_pubkey for o in tx.vout]
    assert [sum(s is script for s in classified) for script in outputs] == [
        1
    ] * len(outputs)
