"""A self-contained Bitcoin implementation.

The paper's reference implementation of Typecoin "includes a new Standard ML
implementation of Bitcoin" (§3); this package is the Python analogue.  It
provides the script interpreter and standard schemas (§3.3), transactions and
the four validity rules of §2, proof-of-work blocks with difficulty
adjustment (§1), a block-tree chain with longest-work selection and reorgs,
an unspent-txout table, a standardness-enforcing mempool, a miner, a
discrete-event network simulator, a wallet, and a regtest harness.
"""

from repro.bitcoin.script import Script, ScriptError, Op, execute_script
from repro.bitcoin.standard import (
    ScriptType,
    classify,
    p2pkh_script,
    multisig_script,
    op_return_script,
)
from repro.bitcoin.transaction import OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.sighash import SigHashType, signature_hash
from repro.bitcoin.block import Block, BlockHeader
from repro.bitcoin.pow import bits_to_target, target_to_bits, block_work
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.utxo import UTXOSet, UTXOEntry
from repro.bitcoin.mempool import Mempool, MempoolError
from repro.bitcoin.miner import Miner, block_subsidy
from repro.bitcoin.wallet import Wallet
from repro.bitcoin.regtest import RegtestNetwork

__all__ = [
    "Script",
    "ScriptError",
    "Op",
    "execute_script",
    "ScriptType",
    "classify",
    "p2pkh_script",
    "multisig_script",
    "op_return_script",
    "OutPoint",
    "Transaction",
    "TxIn",
    "TxOut",
    "SigHashType",
    "signature_hash",
    "Block",
    "BlockHeader",
    "bits_to_target",
    "target_to_bits",
    "block_work",
    "Blockchain",
    "UTXOSet",
    "UTXOEntry",
    "Mempool",
    "MempoolError",
    "Miner",
    "block_subsidy",
    "Wallet",
    "RegtestNetwork",
]
