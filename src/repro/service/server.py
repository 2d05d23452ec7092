"""The fault-tolerant verification service.

:class:`VerificationService` answers §3 claim-verification requests
(`"is txout I's type as claimed?"`) the way the paper's verifying party
would run it as a long-lived server: memoized, bounded, and — the point
of this subsystem — failing in only the ways it promises to.  The one
invariant everything here defends:

    **the service never returns a wrong verdict.**

``ok`` means the full §3 protocol ran to completion; ``invalid`` means a
deterministic check (correspondence, typecheck, claim equality, spend
status) failed.  Every infrastructure problem — deadline expiry, a
saturated admission queue, a drain in progress, an unexpected exception
— maps to one of the *non-verdict* statuses (``timeout`` /
``overloaded`` / ``draining`` / ``error``), so a caller can always
distinguish "the proof is bad" from "the service had a bad day".
``run_service_chaos`` (:mod:`repro.service.chaos`) checks this
invariant against a trusted replay under seeded fault injection.

There is one tier.  The protocol itself is
:func:`repro.core.verifier._verify_claim`, the body ``verify_claim``
runs; this module adds admission, the request's deadline, the typecheck
memo and the wall that turns any exception into a status.  Checks run
inline: an upstream set is a chain, so a dependency level is one
transaction wide, and a check costs less than shipping it to another
process (sized in ``docs/service.md``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import cancel, obs
from repro.core.verifier import ClaimBundle, VerificationError, _verify_claim
from repro.service.cache import (
    AffirmationCache,
    TxMemoTable,
    install_affirmation_cache,
)

__all__ = ["ServiceUnavailable", "Verdict", "VerificationService"]

# Terminal statuses a request can resolve to.  Only the first two are
# verdicts (statements about the claim); the rest are infrastructure
# outcomes and say nothing about the proof.
VERDICT_STATUSES = ("ok", "invalid")
INFRA_STATUSES = ("timeout", "overloaded", "draining", "error")


class ServiceUnavailable(Exception):
    """Internal: a request could not be admitted (shed or draining)."""


@dataclass(frozen=True)
class Verdict:
    """The service's answer to one verification request."""

    status: str  # ok | invalid | timeout | overloaded | draining | error
    detail: str = ""

    @property
    def is_verdict(self) -> bool:
        """True when the status is a statement about the claim itself."""
        return self.status in VERDICT_STATUSES


class VerificationService:
    """A memoizing, bounded, deadline-aware claim verifier."""

    def __init__(
        self,
        chain,
        *,
        min_confirmations: int = 1,
        require_unspent: bool = True,
        max_inflight: int = 4,
        memo_capacity: int = 4096,
    ):
        self.chain = chain
        self.min_confirmations = min_confirmations
        self.require_unspent = require_unspent
        self.max_inflight = max_inflight
        self.memo = TxMemoTable(memo_capacity)
        self._lock = threading.Lock()
        self._drain_cv = threading.Condition(self._lock)
        self._inflight = 0
        self._draining = False
        self._closed = False
        # The affirmation sigcache, shared by every request.
        self._affirmations = AffirmationCache()
        self._prior_affirmation_cache = install_affirmation_cache(
            self._affirmations
        )
        self.requests = 0
        self.shed = 0

    # -- public API ----------------------------------------------------

    def verify(
        self, bundle: ClaimBundle, *, deadline: cancel.Deadline | None = None
    ) -> Verdict:
        """Run the §3 protocol for ``bundle``; always returns a Verdict.

        No exception escapes: every failure mode is mapped to a status.
        """
        try:
            self._admit()
        except ServiceUnavailable as exc:
            return Verdict(str(exc.args[0]), detail=exc.args[1])
        try:
            verdict = self._verify(bundle, deadline)
            if obs.ENABLED:
                obs.inc("service.verdicts_total", status=verdict.status)
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
        install_affirmation_cache(self._prior_affirmation_cache)

    def health(self) -> dict:
        """Liveness/readiness snapshot, read in-process."""
        with self._lock:
            draining = self._draining
            inflight = self._inflight
        return {
            "ready": not draining,
            "draining": draining,
            "inflight": inflight,
            "memo_entries": len(self.memo),
            "requests": self.requests,
            "shed": self.shed,
        }

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

    def _verify(
        self, bundle: ClaimBundle, deadline: cancel.Deadline | None
    ) -> Verdict:
        try:
            with cancel.deadline_scope(deadline):
                _verify_claim(
                    self.chain,
                    bundle,
                    self.min_confirmations,
                    self.require_unspent,
                    memo=self.memo,
                )
        except VerificationError as exc:
            return Verdict("invalid", str(exc))
        except cancel.DeadlineExceeded as exc:
            return Verdict("timeout", str(exc))
        except Exception as exc:  # noqa: BLE001 - the no-wrong-verdict wall
            return Verdict("error", repr(exc))
        return Verdict("ok")
