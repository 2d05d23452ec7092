"""Chain auditing: the 𝔗 : Σ judgement over a whole blockchain.

Appendix A's *chain formation* judgement says a Typecoin history is valid
when every transaction, in order, satisfies 𝔗;Σ ⊢ T ok and contributes its
resolved basis to Σ_global.  The auditor replays that judgement across an
entire Bitcoin chain given the off-chain store of Typecoin transactions —
the "full node" of the Typecoin world, useful for archival verification
and for bootstrapping fresh verifiers.  Each transaction enters the ledger
through :func:`repro.core.verifier.admit`, the step ``verify_claim`` takes;
what is the auditor's own is block order and the taint of what it refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bitcoin.chain import Blockchain
from repro.core.transaction import TypecoinTransaction, referenced_txids
from repro.core.validate import Ledger
from repro.core.verifier import VerificationError, admit


@dataclass
class AuditIssue:
    """One problem found while auditing."""

    carrier_txid: bytes
    reason: str

    def __str__(self) -> str:
        return f"{self.carrier_txid[:8].hex()}…: {self.reason}"


@dataclass
class AuditReport:
    """Outcome of a full-chain audit."""

    ledger: Ledger
    accepted: list[bytes] = field(default_factory=list)
    issues: list[AuditIssue] = field(default_factory=list)
    unmatched: list[bytes] = field(default_factory=list)  # store entries not on-chain

    @property
    def ok(self) -> bool:
        return not self.issues and not self.unmatched


def audit_chain(
    chain: Blockchain,
    store: dict[bytes, TypecoinTransaction],
    strict: bool = False,
) -> AuditReport:
    """Replay chain formation over the active chain.

    ``store`` maps carrier txids to the off-chain Typecoin transactions
    (which, per §3, live with interested parties, not on the network).
    Transactions are processed in block order — exactly the order the
    judgement accumulates Σ_global.  With ``strict`` a single invalid
    transaction raises; otherwise it is recorded and skipped, along with
    everything downstream of it.
    """
    report = AuditReport(ledger=Ledger())
    seen: set[bytes] = set()
    rejected: set[bytes] = set()

    for height in range(chain.height + 1):
        for tx in chain.block_at(height).txs:
            txid = tx.txid
            txn = store.get(txid)
            if txn is None:
                continue
            seen.add(txid)
            # Skip anything depending on an already-rejected transaction.
            tainted = referenced_txids(txn) & rejected
            if tainted:
                rejected.add(txid)
                report.issues.append(
                    AuditIssue(txid, "depends on a rejected transaction")
                )
                continue
            try:
                admit(report.ledger, chain, txid, txn)
            except VerificationError as exc:
                if strict:
                    raise
                rejected.add(txid)
                report.issues.append(AuditIssue(txid, str(exc)))
                continue
            report.accepted.append(txid)

    report.unmatched = [txid for txid in store if txid not in seen]
    return report
