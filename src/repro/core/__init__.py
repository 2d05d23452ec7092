"""Typecoin: the paper's primary contribution, assembled.

A Typecoin transaction "(Σ, C, ι⃗, ω⃗, M)" (paper §4) deals in propositions
instead of numbers; it is overlaid on a Bitcoin carrier transaction whose
double-spend protection provides affine commitment (§3).  This package
contains the transaction structure and the Appendix A validation judgements,
the Bitcoin overlay (1-of-2 multisig metadata embedding), the upstream-set
verification protocol, the client, batch-mode servers, open transactions
with type-checking escrow, the newcoin currency of §6, and the
proof-carrying-authorization vocabulary of §1–2.
"""

from repro.core.transaction import (
    TxnError,
    TypecoinInput,
    TypecoinOutput,
    TypecoinTransaction,
)
from repro.core.validate import Ledger, ValidationFailure, check_typecoin_transaction, world_at
from repro.core.overlay import (
    EmbeddingStrategy,
    OverlayError,
    build_carrier,
    carrier_embeds_hash,
    metadata_pubkey,
)
from repro.core.verifier import ClaimBundle, VerificationError, verify_claim
from repro.core.wallet import TypecoinClient
from repro.core.batch import BatchServer, BatchError
from repro.core.escrow import EscrowAgent, EscrowError, OpenTransaction
from repro.core.builder import basis_publication, build_with_payload, simple_transfer
from repro.core.proofs import decompose_tensor, obligation_lambda, tensor_intro_all
from repro.core.wire import (
    decode_bundle,
    decode_transaction,
    encode_bundle,
    encode_transaction,
)
from repro.core.auditor import AuditReport, audit_chain
from repro.core import currency, pca

__all__ = [
    "TxnError",
    "TypecoinInput",
    "TypecoinOutput",
    "TypecoinTransaction",
    "Ledger",
    "ValidationFailure",
    "check_typecoin_transaction",
    "world_at",
    "EmbeddingStrategy",
    "OverlayError",
    "build_carrier",
    "carrier_embeds_hash",
    "metadata_pubkey",
    "ClaimBundle",
    "VerificationError",
    "verify_claim",
    "TypecoinClient",
    "BatchServer",
    "BatchError",
    "EscrowAgent",
    "EscrowError",
    "OpenTransaction",
    "basis_publication",
    "build_with_payload",
    "simple_transfer",
    "decompose_tensor",
    "obligation_lambda",
    "tensor_intro_all",
    "decode_bundle",
    "decode_transaction",
    "encode_bundle",
    "encode_transaction",
    "AuditReport",
    "audit_chain",
    "currency",
    "pca",
]
