"""E9 — Bitcoin-level overhead of carrying a Typecoin transaction (§3).

"Thus, every transaction-output carries both a bitcoin amount and a type
... the Bitcoin network sees only its hash."  The network-visible cost of a
Typecoin transaction is a constant: one 1-of-2 multisig output per Typecoin
output (33 extra "key" bytes) and the dust riding on it.  We compare a
plain payment with an equivalent Typecoin carrier on size and on the work
their first full script validation does: scripts executed, script ops
and ECDSA verifies.  The carrier's 1-of-2 output is a script the network
runs only when that output is spent.
"""

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import TxOut
from repro.bitcoin.validation import check_tx_inputs
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.wallet import TypecoinClient
from repro.logic.propositions import One

from obs_harness import counted

# A validation's work: scripts run, script ops run, ECDSA verifies (one
# dual-scalar multiplication each).
WORK = ("script.executions_total", "script.ops_total", "ecmult.dual_total")


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


def bench_e9_overlay_overhead():
    net, plain, carrier, typecoin_txn = build_pair()
    utxos, height = net.chain.utxos, net.chain.height + 1

    # Each is validated once, so each is a first sight: nothing is cached.
    _, plain_work = counted(WORK, check_tx_inputs, plain, utxos, height)
    _, carrier_work = counted(WORK, check_tx_inputs, carrier, utxos, height)

    plain_size = len(plain.serialize())
    carrier_size = len(carrier.serialize())
    typecoin_size = len(typecoin_txn.serialize())

    print("\nE9: network-visible overhead of the Typecoin overlay")
    print(f"{'':22}{'bytes':>8}{'scripts':>9}{'ops':>6}{'ECDSA':>7}")

    def row(label, size, work):
        scripts, ops, verifies = (work[name] for name in WORK)
        print(f"{label:22}{size:>8}{scripts:>9}{ops:>6}{verifies:>7}")

    row("plain payment", plain_size, plain_work)
    row("typecoin carrier", carrier_size, carrier_work)
    row("overhead", carrier_size - plain_size,
        {name: carrier_work[name] - plain_work[name] for name in WORK})
    print(f"(the {typecoin_size}-byte Typecoin transaction itself never"
          " touches the network — only its 32-byte hash does)")

    # Shape 1: constant small overhead — one extra pubkey-sized push plus
    # multisig scaffolding, well under 100 bytes per output.
    assert 0 < carrier_size - plain_size < 120
    # Shape 2: the Bitcoin network never validates propositions.  The
    # carrier's validation does exactly a plain payment's work — one
    # script per input — since its 1-of-2 output runs only when spent.
    assert carrier_work == plain_work
    assert plain_work["script.executions_total"] == len(plain.vin)
    assert plain_work["ecmult.dual_total"] == len(plain.vin)
    # Shape 3: the Typecoin payload (which the network never sees) is
    # bigger than the 32-byte hash that represents it on-chain — and this
    # is a *minimal* transaction; realistic payloads (bases, Figure 3
    # proofs) run to kilobytes while the on-chain cost stays constant.
    assert typecoin_size > 32

