"""E4 — metadata embedding and unspent-txout-table deadweight (§3.3).

"Unrecoverable txouts mean permanent deadweight in the table. ...  adding
an uncollectable entry for each Typecoin transaction would only exacerbate
the problem."  The paper therefore embeds metadata as the bogus half of a
1-of-2 multisig, whose entry *can* be garbage collected.

N Typecoin transactions are carried under each embedding strategy; all
Typecoin outputs are then spent (cracked open for their bitcoins, §3.1) and
we measure what remains in the UTXO table.
"""

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import ScriptType
from repro.bitcoin.transaction import OutPoint
from repro.core.builder import simple_transfer
from repro.core.overlay import EmbeddingStrategy
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.wallet import TypecoinClient
from repro.logic.propositions import One

N_TRANSACTIONS = 30


def run_strategy(strategy):
    net = RegtestNetwork()
    ledger = Ledger()
    client = TypecoinClient(net, b"e4-" + strategy.value.encode(), ledger)
    net.fund_wallet(client.wallet, blocks=4)
    baseline = len(net.chain.utxos)

    outpoints = []
    for i in range(N_TRANSACTIONS):
        txn = simple_transfer([], [TypecoinOutput(One(), 600, client.pubkey)])
        carrier = client.submit(txn, strategy=strategy)
        outpoints.append(OutPoint(carrier.txid, 0))
        net.confirm(1)
        client.sync()
    after_create = len(net.chain.utxos)

    # Cleanup: spend every Typecoin output back into plain bitcoins.
    for i, outpoint in enumerate(outpoints):
        txn = simple_transfer(
            [client.input_for(outpoint)],
            [TypecoinOutput(One(), 600, client.pubkey)],
        )
        client.submit(txn, strategy=EmbeddingStrategy.OP_RETURN)
        net.confirm(1)
        client.sync()

    counts = net.chain.utxos.count_by_type()
    # Deadweight: entries that can never be spent — P2PK outputs whose
    # "keys" are metadata.  (Change/coinbase outputs are all P2PKH; live
    # Typecoin outputs are MULTISIG.)
    deadweight = counts.get(ScriptType.P2PK, 0)
    return {
        "strategy": strategy.value,
        "utxos_after_create": after_create - baseline,
        "deadweight_entries": deadweight,
        "table_bytes": net.chain.utxos.serialized_size(),
    }


def bench_e4_utxo_deadweight():
    rows = [
        run_strategy(strategy)
        for strategy in (
            EmbeddingStrategy.MULTISIG_1OF2,
            EmbeddingStrategy.BOGUS_OUTPUT,
            EmbeddingStrategy.OP_RETURN,
        )
    ]

    print(f"\nE4: UTXO-table state after {N_TRANSACTIONS} Typecoin txs +"
          " full cleanup")
    print(f"{'strategy':>16} {'deadweight entries':>20} {'table bytes':>14}")
    for row in rows:
        print(f"{row['strategy']:>16} {row['deadweight_entries']:>20}"
              f" {row['table_bytes']:>14,}")

    by_name = {row["strategy"]: row for row in rows}
    # Shape 1: the paper's 1-of-2 embedding leaves NO deadweight.
    assert by_name["multisig-1of2"]["deadweight_entries"] == 0
    # Shape 2: the rejected bogus-output strategy leaves one permanent
    # entry per transaction.
    assert by_name["bogus-output"]["deadweight_entries"] == N_TRANSACTIONS
    # Shape 3: OP_RETURN (the modern channel) also leaves none.
    assert by_name["op-return"]["deadweight_entries"] == 0

