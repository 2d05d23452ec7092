"""Shared pieces of the benchmark: the per-round record, order
statistics, digests and the per-run scratch directory."""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.bitcoin import sigcache
from repro.core.verifier import VerificationError, verify_claim
from repro.crypto import ecdsa

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


class CorrectnessError(Exception):
    """An output disagreed with its oracle: the run must not report."""


@dataclass
class Round:
    """What one timed round measured.

    ``counts`` are deterministic for one seed (bytes, sim-time
    percentiles, cache hits) and must repeat exactly across rounds.
    """

    window_s: float  # wall seconds of the timed window (oracle time excluded)
    cpu_s: float  # process CPU seconds over the same window
    attempted: int
    failed: int
    latencies_ms: list[float]  # one wall latency per operation
    digest: str  # sha256 over the round's outputs
    counts: dict[str, float] = field(default_factory=dict)
    load_avg: tuple[float, float] = (0.0, 0.0)  # 1-minute, start and end
    trace: object = None  # trace.WindowTrace, on a traced round
    speed: float = 1.0  # calibrate.Speed.factor around the round

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


class Window:
    """One timed window: wall and CPU clocks that stop inside
    :meth:`untimed`, where the oracle replays run.

    The garbage collector runs before the window opens, so a round does
    not pay for its predecessor's garbage.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.window_s = 0.0
        self.cpu_s = 0.0
        self.trace = None  # WindowTrace, on a traced run
        self.load_avg = (0.0, 0.0)
        self._excluded_wall = 0.0
        self._excluded_cpu = 0.0

    def __enter__(self) -> "Window":
        gc.collect()
        self._load_start = os.getloadavg()[0]
        if self.tracer.installed:
            self.tracer.begin_window()
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_exc) -> bool:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._cpu0
        if self.tracer.installed:
            if exc_type is None:
                self.trace = self.tracer.end_window()
            else:
                self.tracer.abort_window()
        self.window_s = wall - self._excluded_wall
        self.cpu_s = cpu - self._excluded_cpu
        self.load_avg = (self._load_start, os.getloadavg()[0])
        return False

    @contextmanager
    def untimed(self):
        """Stop both clocks (and the tracer) for an oracle replay."""
        with self.tracer.paused():
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self._excluded_wall += time.perf_counter() - t0
                self._excluded_cpu += time.process_time() - cpu0

    def round(self, attempted, failed, latencies_ms, digest, counts) -> Round:
        """The closed window's measurements with a round's outcomes."""
        return Round(
            window_s=self.window_s,
            cpu_s=self.cpu_s,
            attempted=attempted,
            failed=failed,
            latencies_ms=latencies_ms,
            digest=digest,
            counts=counts,
            load_avg=self.load_avg,
            trace=self.trace,
        )


def fresh_process_caches() -> None:
    """The signature cache and the ECDSA parity hints are process-wide: a
    round must not inherit its predecessor's (or set-up's signing)."""
    sigcache.set_default_cache(sigcache.SignatureCache())
    ecdsa.clear_parity_hints()


def replay_verdict(chain, bundle, **policy) -> str:
    """The oracle: what a plain §3 ``verify_claim`` says about a bundle."""
    try:
        verify_claim(chain, bundle, **policy)
    except VerificationError:
        return "invalid"
    return "ok"


def check_verdict(verdict, want: str, what: str) -> None:
    """A service verdict must equal the oracle's; an infrastructure status
    (timeout, overloaded, …) says nothing and is counted as a failed op."""
    if verdict.is_verdict and verdict.status != want:
        raise CorrectnessError(
            f"{what}: service said {verdict.status}, replay says {want}:"
            f" {verdict.detail}"
        )


def store_log_bytes(store) -> int:
    """Bytes a ``BlockStore`` holds in its block and undo logs."""
    return os.path.getsize(store.block_log_path) + os.path.getsize(
        store.undo_log_path
    )


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(sorted_values) * q // 1))  # ceil, at least 1
    return sorted_values[int(rank) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); with fewer than two values all three coincide."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def sha256_hex(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class Scratch:
    """A directory under ``bench/out`` for store files, removed on exit.

    The benchmark may write only inside its checkout, so the system temp
    directory is not used.
    """

    def __init__(self) -> None:
        self.root: Path | None = None

    def __enter__(self) -> "Scratch":
        OUT_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
        self._n = 0
        return self

    def __exit__(self, *_exc) -> bool:
        shutil.rmtree(self.root, ignore_errors=True)
        return False

    def fresh_dir(self) -> str:
        """A new empty directory for one round's store."""
        self._n += 1
        path = self.root / f"store-{self._n}"
        path.mkdir()
        return str(path)

    def discard(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)
