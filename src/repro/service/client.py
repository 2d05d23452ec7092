"""Client-side retry discipline for the verification service.

The client owns the *policy* half of fault tolerance: which statuses are
worth retrying and how long to wait between attempts.  The rules:

* **verdicts are final** — ``ok`` and ``invalid`` come from the
  deterministic checkers; retrying them could only waste work (the
  checkers are pure, the chain prefix immutable), so the client returns
  them immediately.
* **infrastructure outcomes retry** — ``overloaded`` and ``error`` are
  transient by construction, so the client retries with capped
  exponential backoff and seeded jitter
  (:mod:`repro.backoff`): delays decorrelate concurrent clients while
  every run stays reproducible from its seed.
* **draining is terminal** — a draining service is going away on
  purpose; hammering it with retries defeats the graceful shutdown, so
  the client hands the status straight back.
"""

from __future__ import annotations

import time

from repro.backoff import backoff_delay, derive_rng
from repro.service.server import Verdict

__all__ = ["RETRYABLE_STATUSES", "ServiceClient"]

RETRYABLE_STATUSES = frozenset({"overloaded", "error"})

# The retry schedule: ``min(MAX_DELAY, BASE_DELAY * 2**(attempt-1))``
# seconds, jittered by ±``repro.backoff.JITTER``.
BASE_DELAY = 0.05
MAX_DELAY = 2.0


class ServiceClient:
    """Retrying front-end to a :class:`VerificationService`.

    ``sleep`` is injectable so retry schedules pin under deterministic
    tests without wall-clock waits.
    """

    def __init__(
        self,
        service,
        *,
        max_attempts: int = 4,
        seed: object = 0,
        sleep=time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.service = service
        self.max_attempts = max_attempts
        self.sleep = sleep
        self._rng = derive_rng("service-client", seed)
        self.retries = 0
        self.last_attempts = 0

    def verify(self, bundle) -> Verdict:
        """Verify ``bundle``, retrying transient failures.

        Returns the first verdict (``ok``/``invalid``), the first
        ``draining``, or — once attempts are exhausted — the last
        transient status observed.
        """
        verdict = Verdict("error", "client made no attempts")
        for attempt in range(1, self.max_attempts + 1):
            self.last_attempts = attempt
            verdict = self.service.verify(bundle)
            if verdict.status not in RETRYABLE_STATUSES:
                return verdict
            if attempt == self.max_attempts:
                break
            self.retries += 1
            self.sleep(
                backoff_delay(
                    attempt,
                    base=BASE_DELAY,
                    cap=MAX_DELAY,
                    rng=self._rng,
                )
            )
        return verdict
