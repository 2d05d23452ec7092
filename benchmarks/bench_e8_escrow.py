"""E8 — open transactions + type-checking escrow (paper §7).

The puzzle contest end-to-end under three fault configurations: 0, 1, and 2
compromised agents out of a 2-of-3 pool.  §7: "using a 2-of-3 script,
participants can tolerate one of the three agents becoming compromised."
"""

from repro.bitcoin.regtest import RegtestNetwork
from repro.core.escrow import EscrowAgent
from repro.core.validate import Ledger
from repro.core.wallet import TypecoinClient
from repro.crypto.keys import PrivateKey

import sys
import pathlib

# The repo root, so the ``tests`` package resolves outside pytest too.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from tests.core.test_escrow import TestPuzzleContest as _PuzzleContest  # noqa: E402


def run_configuration(sabotage):
    net = RegtestNetwork()
    ledger = Ledger()
    alice = TypecoinClient(net, b"e8-alice", ledger)
    bob = TypecoinClient(net, b"e8-bob", ledger)
    net.fund_wallet(alice.wallet)
    net.fund_wallet(bob.wallet)
    agents = [
        EscrowAgent(
            key=PrivateKey.from_seed(b"e8-agent" + bytes([i])),
            chain=net.chain,
            ledger=ledger,
        )
        for i in range(3)
    ]
    carrier, refusals = _PuzzleContest().run_contest(
        net, ledger, alice, bob, agents, sabotage=sabotage
    )
    return {
        "compromised": sabotage,
        "prize_claimed": carrier is not None,
        "refusals": refusals,
    }


def bench_e8_escrow_fault_tolerance():
    rows = [run_configuration(s) for s in (0, 1, 2)]

    print("\nE8: 2-of-3 type-checking escrow under agent compromise")
    print(f"{'compromised':>12} {'prize claimed':>14} {'refusals':>10}")
    for row in rows:
        print(f"{row['compromised']:>12} {str(row['prize_claimed']):>14}"
              f" {row['refusals']:>10}")

    assert rows[0]["prize_claimed"] and rows[0]["refusals"] == 0
    assert rows[1]["prize_claimed"] and rows[1]["refusals"] == 1
    assert not rows[2]["prize_claimed"]

