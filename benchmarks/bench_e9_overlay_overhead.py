"""E9 — Bitcoin-level overhead of carrying a Typecoin transaction (§3).

"Thus, every transaction-output carries both a bitcoin amount and a type
... the Bitcoin network sees only its hash."  The network-visible cost of a
Typecoin transaction is a constant: one 1-of-2 multisig output per Typecoin
output (33 extra "key" bytes) and the dust riding on it.  We compare a
plain payment's carrier with an equivalent Typecoin carrier on size and
full script-validation time.
"""

import time

from repro.bitcoin import sigcache
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import TxOut
from repro.bitcoin.validation import check_tx_inputs
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.wallet import TypecoinClient
from repro.logic.propositions import One


def build_pair():
    net = RegtestNetwork()
    client = TypecoinClient(net, b"e9-client", Ledger())
    net.fund_wallet(client.wallet, blocks=2)

    plain = client.wallet.create_transaction(
        net.chain, [TxOut(600, p2pkh_script(client.wallet.key_hash))], fee=10_000
    )
    typecoin_txn = simple_transfer(
        [], [TypecoinOutput(One(), 600, client.pubkey)]
    )
    from repro.core.overlay import build_carrier

    carrier = build_carrier(
        net.chain, client.wallet, typecoin_txn, fee=10_000,
        exclude={txin.prevout for txin in plain.vin},
    )
    return net, plain, carrier, typecoin_txn


def _mean_validate_seconds(tx, net, rounds=10):
    start = time.perf_counter()
    for _ in range(rounds):
        check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    return (time.perf_counter() - start) / rounds


def bench_e9_overlay_overhead(benchmark):
    net, plain, carrier, typecoin_txn = build_pair()

    def validate_both():
        check_tx_inputs(plain, net.chain.utxos, net.chain.height + 1)
        check_tx_inputs(carrier, net.chain.utxos, net.chain.height + 1)

    benchmark(validate_both)

    plain_size = len(plain.serialize())
    carrier_size = len(carrier.serialize())

    # Full script validation is a first sight: with the signature cache on,
    # every call after the first skips a transaction's scripts by its txid.
    old = sigcache.set_default_cache(None)
    try:
        plain_time = _mean_validate_seconds(plain, net)
        carrier_time = _mean_validate_seconds(carrier, net)
    finally:
        sigcache.set_default_cache(old)

    typecoin_size = len(typecoin_txn.serialize())

    print("\nE9: network-visible overhead of the Typecoin overlay")
    print(f"{'':22}{'bytes':>8}{'validate':>12}")
    print(f"{'plain payment':22}{plain_size:>8}{plain_time * 1000:>10.2f}ms")
    print(f"{'typecoin carrier':22}{carrier_size:>8}"
          f"{carrier_time * 1000:>10.2f}ms")
    print(f"{'overhead':22}{carrier_size - plain_size:>8}"
          f"{(carrier_time - plain_time) * 1000:>10.2f}ms")
    print(f"(the {typecoin_size}-byte Typecoin transaction itself never"
          " touches the network — only its 32-byte hash does)")

    # Shape 1: constant small overhead — one extra pubkey-sized push plus
    # multisig scaffolding, well under 100 bytes per output.
    assert 0 < carrier_size - plain_size < 120
    # Shape 2: the Bitcoin network never validates propositions; carrier
    # validation stays the same order of magnitude as a plain payment.
    assert carrier_time < plain_time * 4
    # Shape 3: the Typecoin payload (which the network never sees) is
    # bigger than the 32-byte hash that represents it on-chain — and this
    # is a *minimal* transaction; realistic payloads (bases, Figure 3
    # proofs) run to kilobytes while the on-chain cost stays constant.
    assert typecoin_size > 32
    benchmark.extra_info.update({
        "plain_bytes": plain_size,
        "carrier_bytes": carrier_size,
        "typecoin_payload_bytes": typecoin_size,
    })


if __name__ == "__main__":
    from obs_harness import run_standalone

    run_standalone(bench_e9_overlay_overhead)
