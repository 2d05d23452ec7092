"""The fault-tolerant verification service.

:class:`VerificationService` answers §3 claim-verification requests
(`"is txout I's type as claimed?"`) the way the paper's verifying party
would run it *at scale*: memoized, parallel, and — the point of this
subsystem — failing in only the ways it promises to.  The one invariant
everything here defends:

    **the service never returns a wrong verdict.**

``ok`` means the full §3 protocol ran to completion; ``invalid`` means a
deterministic check (correspondence, typecheck, claim equality, spend
status) failed.  Every infrastructure problem — deadline expiry, a
saturated admission queue, a dying worker pool, a drain in progress, an
unexpected exception — maps to one of the *non-verdict* statuses
(``timeout`` / ``overloaded`` / ``draining`` / ``error``), so a caller
can always distinguish "the proof is bad" from "the service had a bad
day".  ``run_service_chaos`` (:mod:`repro.bitcoin.faults`) checks this
invariant against a trusted single-process replay under inferno-grade
fault injection.

The degradation ladder, in order of retreat:

1. **pooled** — independent transactions of one wavefront level fan out
   across the process pool, results consumed in submission order;
2. **serial** — the pool broke past its respawn budget (or the circuit
   breaker is open): checks run in-process, caches still on;
3. **cache-off serial** — the breaker is open: the txid memo is not
   consulted and the affirmation sigcache is uninstalled for the
   request, so a request that follows repeated infrastructure failures
   trusts nothing but the deterministic checkers themselves.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import cancel, obs
from repro.core.overlay import OverlayError, check_carrier_correspondence
from repro.core.validate import Ledger, world_at
from repro.core.verifier import (
    ClaimBundle,
    VerificationError,
    dependency_levels,
)
from repro.core.wire import encode_transaction
from repro.logic.propositions import normalize_prop, props_equal
from repro.service.breaker import CircuitBreaker
from repro.service.cache import (
    AffirmationCache,
    TxMemoTable,
    install_affirmation_cache,
    tx_digest,
)
from repro.service.pool import PoolBroken, WorkerPool, make_job, run_job

__all__ = ["ServiceUnavailable", "Verdict", "VerificationService"]

# Terminal statuses a request can resolve to.  Only the first two are
# verdicts (statements about the claim); the rest are infrastructure
# outcomes and say nothing about the proof.
VERDICT_STATUSES = ("ok", "invalid")
INFRA_STATUSES = ("timeout", "overloaded", "draining", "error")


class ServiceUnavailable(Exception):
    """Internal: a request could not be admitted (shed or draining)."""


class _WorkerFault(Exception):
    """A worker returned an unexpected error for one job."""


@dataclass(frozen=True)
class Verdict:
    """The service's answer to one verification request."""

    status: str  # ok | invalid | timeout | overloaded | draining | error
    detail: str = ""
    degraded: bool = False  # served below the pooled tier

    @property
    def is_verdict(self) -> bool:
        """True when the status is a statement about the claim itself."""
        return self.status in VERDICT_STATUSES


class VerificationService:
    """A memoizing, circuit-broken, deadline-aware claim verifier.

    ``workers=0`` (the default) runs without a process pool — every
    check is in-process and serial, which is the right shape for tests
    and small upstream sets.  ``pool`` and ``breaker`` are injectable
    for deterministic fault testing.
    """

    def __init__(
        self,
        chain,
        *,
        min_confirmations: int = 1,
        require_unspent: bool = True,
        workers: int = 0,
        max_inflight: int = 4,
        memo_capacity: int = 4096,
        breaker: CircuitBreaker | None = None,
        pool: WorkerPool | None = None,
        clock=time.monotonic,
    ):
        self.chain = chain
        self.min_confirmations = min_confirmations
        self.require_unspent = require_unspent
        self.max_inflight = max_inflight
        self.clock = clock
        self.memo = TxMemoTable(memo_capacity)
        self.breaker = breaker or CircuitBreaker(clock=clock)
        if pool is not None:
            self.pool = pool
        elif workers > 0:
            self.pool = WorkerPool(workers=workers)
        else:
            self.pool = None
        self._lock = threading.Lock()
        self._drain_cv = threading.Condition(self._lock)
        self._inflight = 0
        self._draining = False
        self._closed = False
        # The in-process affirmation sigcache, shared by every request on
        # the non-degraded path (workers build their own per process).
        self._affirmations = AffirmationCache()
        self._prior_affirmation_cache = install_affirmation_cache(
            self._affirmations
        )
        # Serializes degraded (cache-off) requests: single-process mode
        # means what it says, and the global checker hook is swapped
        # while one is running.
        self._degraded_lock = threading.Lock()
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
            if not obs.ENABLED:
                return self._verify(bundle, deadline)
            with obs.trace_span(
                "service.verify",
                metric="service.verify_seconds",
                carriers=len(bundle.transactions),
            ):
                verdict = self._verify(bundle, deadline)
            obs.inc("service.verdicts_total", status=verdict.status)
            obs.emit(
                "service.verdict",
                status=verdict.status,
                degraded=verdict.degraded,
            )
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
        """Graceful shutdown: drain, stop the pool, detach the caches."""
        self.drain(timeout=timeout)
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.pool is not None:
            self.pool.close()
        install_affirmation_cache(self._prior_affirmation_cache)

    def health(self) -> dict:
        """Liveness/readiness snapshot (`/healthz` serves this)."""
        with self._lock:
            draining = self._draining
            inflight = self._inflight
        return {
            "ready": not draining,
            "draining": draining,
            "inflight": inflight,
            "breaker": self.breaker.state,
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
            if obs.ENABLED:
                obs.gauge_max("service.inflight", self._inflight)

    def _release(self) -> None:
        with self._drain_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._drain_cv.notify_all()

    # -- the protocol --------------------------------------------------

    def _verify(
        self, bundle: ClaimBundle, deadline: cancel.Deadline | None
    ) -> Verdict:
        degraded = self.pool is not None and not self.breaker.allow()
        try:
            with cancel.deadline_scope(deadline):
                if degraded:
                    if obs.ENABLED:
                        obs.inc("service.degraded_total")
                        obs.emit("service.degraded", reason="breaker_open")
                    with self._degraded_lock:
                        prior = install_affirmation_cache(None)
                        try:
                            self._run_protocol(
                                bundle, deadline, use_pool=False,
                                use_caches=False,
                            )
                        finally:
                            install_affirmation_cache(prior)
                else:
                    self._run_protocol(
                        bundle, deadline,
                        use_pool=self.pool is not None, use_caches=True,
                    )
        except VerificationError as exc:
            return Verdict("invalid", str(exc), degraded=degraded)
        except cancel.DeadlineExceeded as exc:
            return Verdict("timeout", str(exc), degraded=degraded)
        except _WorkerFault as exc:
            return Verdict("error", str(exc), degraded=degraded)
        except Exception as exc:  # noqa: BLE001 - the no-wrong-verdict wall
            return Verdict("error", repr(exc), degraded=degraded)
        return Verdict("ok", degraded=degraded)

    def _run_protocol(
        self,
        bundle: ClaimBundle,
        deadline: cancel.Deadline | None,
        *,
        use_pool: bool,
        use_caches: bool,
    ) -> Ledger:
        """The §3 loop, restructured into dependency wavefronts.

        Raises ``VerificationError`` on any deterministic failure,
        ``DeadlineExceeded`` on expiry, ``_WorkerFault`` on unexpected
        worker errors; returns the accumulated ledger on success.
        """
        ledger = Ledger()
        for level in dependency_levels(bundle.transactions):
            if deadline is not None and deadline.expired():
                raise cancel.DeadlineExceeded("deadline expired between levels")
            to_check = []  # (txid, txn, txn_bytes, world, digest)
            registrations = []  # (txid, txn, digest) in level order
            for txid in level:
                txn = bundle.transactions[txid]
                if txid in ledger.transactions:
                    continue
                found = self.chain.get_transaction(txid)
                if found is None:
                    raise VerificationError(
                        f"carrier {txid[:8].hex()}… is not in the active chain"
                    )
                carrier, height = found
                confirmations = self.chain.height - height + 1
                if confirmations < self.min_confirmations:
                    raise VerificationError(
                        f"carrier {txid[:8].hex()}… has {confirmations}"
                        f" confirmations, policy requires"
                        f" {self.min_confirmations}"
                    )
                # Correspondence is checked on EVERY request, memo hit or
                # not — it binds the presented bytes to the chain, and is
                # cheap next to the typecheck it gates.
                try:
                    check_carrier_correspondence(carrier, txn)
                except OverlayError as exc:
                    raise VerificationError(
                        f"hash embedding check failed: {exc}"
                    ) from exc
                txn_bytes = encode_transaction(txn)
                digest = tx_digest(txn_bytes)
                world = world_at(self.chain, height)
                registrations.append((txid, txn, digest))
                if use_caches and self.memo.lookup(txid, digest):
                    # Typecheck memoized for exactly these bytes; outputs
                    # are still recomputed from the presented transaction
                    # at registration below, never read from any cache.
                    continue
                to_check.append((txid, txn, txn_bytes, world, digest))
            self._check_level(to_check, ledger, deadline, use_pool)
            for txid, txn, digest in registrations:
                ledger.register(txid, txn)
                if use_caches:
                    self.memo.record(txid, digest)

        target = ledger.output(bundle.outpoint.txid, bundle.outpoint.index)
        if target is None:
            raise VerificationError(
                "claimed txout is not produced by the bundle"
            )
        if not props_equal(target.prop, bundle.prop):
            raise VerificationError(
                f"claimed type {normalize_prop(bundle.prop)} but output has"
                f" type {normalize_prop(target.prop)}"
            )
        if self.require_unspent and self.chain.is_spent(bundle.outpoint):
            raise VerificationError("claimed txout has already been spent")
        return ledger

    def _check_level(self, to_check, ledger, deadline, use_pool) -> None:
        """Check one wavefront level's transactions, pooled if possible."""
        if not to_check:
            return
        budget = deadline.remaining() if deadline is not None else None
        if budget is not None and budget <= 0:
            raise cancel.DeadlineExceeded("no budget left for level")
        jobs = [
            make_job(txid, txn, txn_bytes, ledger, world, budget=budget)
            for txid, txn, txn_bytes, world, _digest in to_check
        ]
        results = None
        if use_pool and self.pool is not None:
            try:
                results = self.pool.run(jobs, deadline=deadline)
                self.breaker.record_success()
            except PoolBroken:
                # Pool health feeds the breaker; this request still gets
                # an answer — one rung down the ladder, serial in-process.
                self.breaker.record_failure()
                if obs.ENABLED:
                    obs.inc("service.degraded_total")
                    obs.emit("service.degraded", reason="pool_broken")
                results = None
        if results is None:
            results = [run_job(job) for job in jobs]
        # Submission order: the earliest failing transaction decides,
        # independent of worker scheduling.
        for result in results:
            if result.status == "ok":
                continue
            if result.status == "invalid":
                raise VerificationError(
                    f"type check failed for carrier"
                    f" {result.txid[:8].hex()}…: {result.detail}"
                )
            if result.status == "timeout":
                raise cancel.DeadlineExceeded(result.detail)
            raise _WorkerFault(
                f"worker error on {result.txid[:8].hex()}…: {result.detail}"
            )
