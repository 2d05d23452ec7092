"""``repro.service`` — the fault-tolerant proof-verification service.

The paper's §3 verification protocol run as a long-lived server instead
of a one-shot library call: the same loop ``verify_claim`` runs
(:func:`repro.core.verifier._verify_claim`), with what it admitted held
per carrier txid under the transaction's hash and its confirming block's
(sound because chain-embedded transactions are immutable), so a
re-presented transaction is neither walked nor re-checked, and
proof-check signature verifications shared through a bounded LRU.
Every failure mode is first-class — the client retries with capped
jittered backoff (:mod:`repro.backoff`), a bounded admission queue sheds
overload, and shutdown drains; a request has no wall-clock bound.  The
load-bearing invariant: the service never returns a wrong verdict;
infrastructure trouble surfaces as ``overloaded``/``draining``/``error``,
never as a false ``ok`` or ``invalid``.  See ``docs/service.md``.
"""

from repro.service.cache import TxMemoTable, install_affirmation_cache
from repro.service.client import RETRYABLE_STATUSES, ServiceClient
from repro.service.server import Verdict, VerificationService

__all__ = [
    "RETRYABLE_STATUSES",
    "ServiceClient",
    "TxMemoTable",
    "Verdict",
    "VerificationService",
    "install_affirmation_cache",
]
