"""The fault-tolerant verification service.

:class:`VerificationService` answers §3 claim-verification requests
(`"is txout I's type as claimed?"`) the way the paper's verifying party
would run it as a long-lived server: memoized, bounded, and — the point
of this subsystem — failing in only the ways it promises to.  The one
invariant everything here defends:

    **the service never returns a wrong verdict.**

``ok`` means the full §3 protocol ran to completion; ``invalid`` means a
deterministic check (correspondence, typecheck, claim equality, spend
status) failed.  Every infrastructure problem — a saturated admission
queue, a drain in progress, an unexpected exception — maps to one of the
*non-verdict* statuses (``overloaded`` / ``draining`` / ``error``), so a
caller can always distinguish "the proof is bad" from "the service had a
bad day".  A request has no wall-clock bound: it is answered or refused.
``run_service_chaos`` (:mod:`repro.service.chaos`) checks this
invariant against a trusted replay under seeded fault injection.

There is one tier.  The protocol itself is
:func:`repro.core.verifier._verify_claim`, the body ``verify_claim``
runs; this module adds admission, the memo of admitted transactions and
the wall that turns any exception into a status.  Checks run
inline: an upstream set is a chain, so a dependency level is one
transaction wide, and a check costs less than shipping it to another
process (sized in ``docs/service.md``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import obs
from repro.core.verifier import ClaimBundle, VerificationError, _verify_claim
from repro.lru import LRU
from repro.service.cache import (
    TxMemoTable,
    close_affirmation_cache,
    open_affirmation_cache,
)

__all__ = ["ServiceUnavailable", "Verdict", "VerificationService"]

# Terminal statuses a request can resolve to.  Only the first two are
# verdicts (statements about the claim); the rest are infrastructure
# outcomes and say nothing about the proof.
VERDICT_STATUSES = ("ok", "invalid")
INFRA_STATUSES = ("overloaded", "draining", "error")


class ServiceUnavailable(Exception):
    """Internal: a request could not be admitted (shed or draining)."""


@dataclass(frozen=True)
class Verdict:
    """The service's answer to one verification request."""

    status: str  # ok | invalid | overloaded | draining | error
    detail: str = ""

    @property
    def is_verdict(self) -> bool:
        """True when the status is a statement about the claim itself."""
        return self.status in VERDICT_STATUSES


class VerificationService:
    """A memoizing, bounded claim verifier.

    It asks what ``verify_claim`` asks by default: every carrier
    ``core.verifier.MIN_CONFIRMATIONS`` deep and the claimed txout unspent.
    """

    def __init__(
        self,
        chain,
        *,
        max_inflight: int = 4,
    ):
        self.chain = chain
        self.max_inflight = max_inflight
        self.memo = TxMemoTable()
        self._lock = threading.Lock()
        self._drain_cv = threading.Condition(self._lock)
        self._inflight = 0
        self._draining = False
        self._closed = False
        # The affirmation sigcache, shared by every request.
        self._affirmations = LRU(1 << 14)
        open_affirmation_cache(self._affirmations)
        self.requests = 0
        self.shed = 0

    # -- public API ----------------------------------------------------

    def verify(self, bundle: ClaimBundle) -> Verdict:
        """Run the §3 protocol for ``bundle``; always returns a Verdict.

        No exception escapes: every failure mode is mapped to a status.
        """
        try:
            self._admit()
        except ServiceUnavailable as exc:
            return Verdict(str(exc.args[0]), detail=exc.args[1])
        try:
            verdict = self._verify(bundle)
            if obs.ENABLED:
                obs.inc("service.verdicts_total")
                # The status is one of the service's own fixed set, so
                # the per-status series name needs no escaping.
                obs.inc(f'service.verdicts_total{{status="{verdict.status}"}}')
                obs.emit("service.verdict", status=verdict.status)
            return verdict
        finally:
            self._release()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting requests; wait for in-flight ones to finish.

        Returns True when the service is idle (False on wait timeout).
        Idempotent, and `verify` keeps answering — with ``draining`` —
        for callers that race the shutdown.
        """
        with self._drain_cv:
            self._draining = True
            drained = self._drain_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )
        return drained

    def close(self, timeout: float | None = None) -> None:
        """Graceful shutdown: drain, then detach the affirmation cache."""
        self.drain(timeout=timeout)
        with self._lock:
            if self._closed:
                return
            self._closed = True
        close_affirmation_cache(self._affirmations)

    # -- admission -----------------------------------------------------

    def _admit(self) -> None:
        with self._lock:
            self.requests += 1
            if obs.ENABLED:
                obs.inc("service.requests_total")
            if self._draining or self._closed:
                if obs.ENABLED:
                    obs.emit(
                        "service.shed",
                        inflight=self._inflight,
                        reason="draining",
                    )
                raise ServiceUnavailable("draining", "service is draining")
            if self._inflight >= self.max_inflight:
                self.shed += 1
                if obs.ENABLED:
                    obs.inc("service.shed_total")
                    obs.emit(
                        "service.shed",
                        inflight=self._inflight,
                        reason="overloaded",
                    )
                raise ServiceUnavailable(
                    "overloaded",
                    f"admission queue full ({self._inflight} in flight)",
                )
            self._inflight += 1

    def _release(self) -> None:
        with self._drain_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._drain_cv.notify_all()

    # -- the protocol --------------------------------------------------

    def _verify(self, bundle: ClaimBundle) -> Verdict:
        try:
            _verify_claim(
                self.chain, bundle, require_unspent=True, memo=self.memo
            )
        except VerificationError as exc:
            return Verdict("invalid", str(exc))
        except Exception as exc:  # noqa: BLE001 - the no-wrong-verdict wall
            return Verdict("error", repr(exc))
        return Verdict("ok")
