"""Process-pool execution of independent per-transaction typechecks.

The §3 protocol checks every transaction in the upstream set; within one
wavefront level (no dependency edges between them) those checks are
independent, so the service fans them across a ``ProcessPoolExecutor``.
This module owns the three hard parts:

* **picklable jobs** — :func:`make_job` flattens what
  ``check_typecoin_transaction`` needs into a :class:`CheckJob` of plain
  data.  The live ``Ledger`` and ``WorldView`` don't pickle (the world's
  spent oracle is a closure over the chain), so the job carries the
  global-basis snapshot, the resolved ``(prop, amount)`` of each spent
  output, the block timestamp, and the *answers* to every ``spent(...)``
  condition the transaction could evaluate — collected by a syntactic
  walk, sound because ``Spent`` holds literal txid bytes that
  substitution can never manufacture.

* **deterministic first failure** — results are consumed in submission
  order (the :class:`ParallelScriptVerifier` pattern), so the earliest
  failing transaction wins regardless of worker scheduling.

* **crash recovery** — a worker dying mid-job breaks the whole executor
  (``BrokenProcessPool``).  :meth:`WorkerPool.run` respawns the pool and
  re-dispatches every job whose result wasn't collected; jobs are pure
  functions of their payload, so re-running them is idempotent.  After
  ``max_respawns`` consecutive breaks it raises :class:`PoolBroken`,
  which the service feeds to its circuit breaker.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro import cancel, obs
from repro.core.transaction import nodes_of_type
from repro.logic.conditions import Spent, WorldView
from repro.service.cache import AffirmationCache, install_affirmation_cache

__all__ = ["CheckJob", "JobResult", "PoolBroken", "WorkerPool", "make_job", "run_job"]


class PoolBroken(Exception):
    """The worker pool kept dying faster than it could be respawned."""


@dataclass(frozen=True)
class CheckJob:
    """Everything one typecheck needs, as plain picklable data."""

    txid: bytes
    txn_bytes: bytes  # wire encoding; the worker re-decodes
    basis: object  # global Basis snapshot at this wavefront level
    inputs: dict  # (txid, index) -> (resolved prop, amount)
    world_time: int
    spent: frozenset  # {(txid, index)} answers for the txn's Spent atoms
    budget: float | None  # seconds of deadline remaining at dispatch


@dataclass(frozen=True)
class JobResult:
    txid: bytes
    status: str  # ok | invalid | timeout | error
    detail: str = ""


def spent_atoms(txn) -> frozenset:
    """All ``(txid, index)`` pairs named by ``Spent`` conditions anywhere
    in the transaction.

    A syntactic walk over the transaction's dataclass tree.  ``Spent``
    carries literal 32-byte txids (no variables), so no substitution
    performed during checking can introduce an atom this walk missed —
    shipping just these answers to the worker loses nothing.
    """
    return frozenset(
        (atom.txid, atom.index) for atom in nodes_of_type(txn, Spent)
    )


def make_job(txid, txn, txn_bytes, ledger, world, budget=None) -> CheckJob:
    """Flatten one transaction's check against ``ledger``/``world``."""
    inputs = {}
    for inp in txn.inputs:
        known = ledger.output(inp.txid, inp.index)
        if known is not None:
            inputs[(inp.txid, inp.index)] = (known.prop, known.amount)
    spent = frozenset(
        atom for atom in spent_atoms(txn) if world.spent_oracle(*atom)
    )
    return CheckJob(
        txid=txid,
        txn_bytes=txn_bytes,
        basis=ledger.global_basis,
        inputs=inputs,
        world_time=world.time,
        spent=spent,
        budget=budget,
    )


def run_job(job: CheckJob) -> JobResult:
    """Execute one check; pure function of the job payload.

    Runs identically in a worker process or inline — the degradation
    ladder's serial mode calls this directly.  ``invalid`` comes only
    from the deterministic checkers (including malformed wire bytes);
    deadline expiry is ``timeout`` and anything unexpected is ``error``,
    so an infrastructure problem can never masquerade as a verdict.
    """
    from repro.core.validate import (
        Ledger,
        LedgerOutput,
        ValidationFailure,
        check_typecoin_transaction,
    )
    from repro.core.wire import decode_transaction
    from repro.logic.decoding import DecodingError

    deadline = None
    if job.budget is not None:
        deadline = cancel.Deadline.after(job.budget)
    try:
        with cancel.deadline_scope(deadline):
            txn = decode_transaction(job.txn_bytes)
            ledger = Ledger(global_basis=job.basis)
            for (txid, index), (prop, amount) in job.inputs.items():
                ledger.outputs[(txid, index)] = LedgerOutput(
                    prop=prop, amount=amount, principal=b"\x00" * 20
                )
            world = WorldView(
                time=job.world_time,
                spent_oracle=lambda txid, index: (txid, index) in job.spent,
            )
            check_typecoin_transaction(ledger, txn, world)
    except (ValidationFailure, DecodingError) as exc:
        return JobResult(job.txid, "invalid", str(exc))
    except cancel.DeadlineExceeded as exc:
        return JobResult(job.txid, "timeout", str(exc))
    except Exception as exc:  # noqa: BLE001 - fault boundary
        return JobResult(job.txid, "error", repr(exc))
    return JobResult(job.txid, "ok")


def _worker_init() -> None:
    """Per-process initializer: a private affirmation sigcache."""
    install_affirmation_cache(AffirmationCache())


class WorkerPool:
    """A respawning process pool running :func:`run_job`."""

    def __init__(self, workers: int = 2, max_respawns: int = 2):
        self.workers = max(1, int(workers))
        self.max_respawns = max_respawns
        self.respawns = 0
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_init
            )
        return self._executor

    def _discard_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def run(self, jobs: list, deadline=None) -> list:
        """Run every job; results in submission order.

        On ``BrokenProcessPool`` the executor is rebuilt and all
        uncollected jobs re-dispatched (idempotent).  Raises
        :class:`PoolBroken` once respawns are exhausted in a single run,
        and :class:`~repro.cancel.DeadlineExceeded` if ``deadline``
        passes while waiting on a worker.
        """
        results: list = [None] * len(jobs)
        pending = list(range(len(jobs)))
        breaks = 0
        while pending:
            executor = self._ensure_executor()
            try:
                # submit() itself raises BrokenProcessPool when a worker
                # died since the last batch, so it shares the respawn path.
                futures = [
                    (i, executor.submit(run_job, jobs[i])) for i in pending
                ]
                for i, future in futures:
                    timeout = None
                    if deadline is not None:
                        timeout = max(0.0, deadline.remaining())
                    results[i] = future.result(timeout=timeout)
                    pending.remove(i)
            except concurrent.futures.TimeoutError:
                raise cancel.DeadlineExceeded(
                    "deadline passed waiting on worker results"
                ) from None
            except BrokenProcessPool:
                self._discard_executor()
                breaks += 1
                self.respawns += 1
                if obs.ENABLED:
                    obs.inc("service.pool_respawns_total")
                    obs.emit("service.pool_respawn", pending=len(pending))
                if breaks > self.max_respawns:
                    raise PoolBroken(
                        f"worker pool broke {breaks} times in one batch"
                    ) from None
        if obs.ENABLED:
            obs.inc("service.worker_jobs_total", len(jobs))
        return results

    def kill_worker(self, timeout: float = 30.0) -> None:
        """Fault injector: crash one worker process, breaking the pool.

        Submits an ``os._exit`` pill and waits for the executor to notice
        the death, so callers observe a deterministically-broken pool on
        their next :meth:`run`.
        """
        try:
            future = self._ensure_executor().submit(os._exit, 1)
            future.result(timeout=timeout)
        except BrokenProcessPool:
            # Either the pill landed or the pool was already broken —
            # both leave the state this injector promises.  run() owns
            # the respawn (and its accounting), so don't discard here.
            pass

    def slow_worker(self, delay: float = 0.25) -> None:
        """Fault injector: occupy one worker with a straggler sleep.

        The next batch contends for one fewer worker — a latency spike
        rather than a crash, exercising deadline propagation instead of
        the respawn path.  A no-op on an already-broken pool.
        """
        try:
            self._ensure_executor().submit(time.sleep, delay)
        except BrokenProcessPool:
            pass  # run() will respawn; nothing left to slow down

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
