"""Reference implementations the suite (and the smoke scripts) compare
the program against.  Nothing under ``src/`` imports this module."""

from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.bitcoin.wallet import Spendable


def full_scan_spendables(wallet, chain):
    """``Wallet.spendables`` as it was before the table kept an owner
    index: classify every entry of the whole unspent-txout table."""
    result = []
    for outpoint, entry in chain.utxos.items():
        if not wallet._controls(entry.output.script_pubkey):
            continue
        if entry.is_coinbase and chain.height - entry.height < COINBASE_MATURITY:
            continue
        result.append(
            Spendable(outpoint, entry.output, entry.height, entry.is_coinbase)
        )
    result.sort(key=lambda s: (s.height, s.outpoint))
    return result
