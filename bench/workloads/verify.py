"""claim-verify-cold and claim-verify-warm.

Both ask the verification service about the working set of
:mod:`workloads.claims` over an immutable regtest chain; one client,
closed loop.  ``cold`` is a verifier's first sight of a history: every
request goes to a freshly constructed service, so the memo and the
affirmation cache are empty and the typechecker does all the work.
``warm`` is the same layer used the other way: one long-lived service,
warmed by an untimed pass, then a skewed request stream in which most
requests hit the memo and only the non-memoizable tail remains (chain
presence, carrier correspondence, digest re-hash).

The chain never changes, so each claim's expected verdict is computed
once, in set-up, by a plain ``verify_claim`` replay.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.backoff import derive_rng
from repro.logic import checker
from repro.service import ServiceClient, VerificationService

from bench.common import (
    CorrectnessError,
    Round,
    Window,
    check_verdict,
    replay_verdict,
    sha256_hex,
)
from bench.workloads.claims import WorkingSet, build_working_set

# Ladder principals.  With 13 rich claims the set has 25 claims, an odd
# number: in a cold pass every claim is asked once, so the median latency
# is one claim's cost and not the gap between two.
PRINCIPALS = 2
POPULARITY_ALPHA = 1.16  # the population generator's power-law exponent
WRONG_EVERY = 10  # every tenth warm request asks for the wrong type
# Which claim is how popular is part of the load's shape, not of the seed:
# a request costs 0.1 ms to 20 ms depending on its claim, so a seeded
# ranking would move the mean cost by an order of magnitude between seeds.
RANKING_SEED = 7


@dataclass
class Inputs:
    seed: int
    working_set: WorkingSet
    requests: list[tuple[int, bool]]  # (claim index, ask for the wrong type)
    expected: list[str]  # per claim, the replayed verdict for its true type
    digests: dict[str, str]


def _setup(seed: int, requests_for) -> Inputs:
    working_set = build_working_set(seed, PRINCIPALS)
    expected = []
    for claim in working_set.claims:
        expected.append(replay_verdict(working_set.chain, claim.bundle))
        if replay_verdict(working_set.chain, claim.wrong) != "invalid":
            raise CorrectnessError(f"{claim.label}: wrong type replays ok")
    requests = requests_for(len(working_set.claims))
    derive_rng("bench-verify-order", seed).shuffle(requests)
    order = sha256_hex(
        *(b"%d:%d," % (index, wrong) for index, wrong in requests)
    )
    return Inputs(
        seed=seed,
        working_set=working_set,
        requests=requests,
        expected=expected,
        digests={"claim_bundles": working_set.digest, "request_order": order},
    )


def setup_cold(seed: int, _sizes: dict) -> Inputs:
    """Every pass asks about each claim once, in seeded order."""
    return _setup(seed, lambda n: [(i, False) for i in range(n)])


def setup_warm(seed: int, sizes: dict) -> Inputs:
    requests = sizes["requests"]

    def stream(n: int) -> list[tuple[int, bool]]:
        ranking = list(range(n))
        random.Random(RANKING_SEED).shuffle(ranking)
        weights = [(rank + 1) ** -POPULARITY_ALPHA for rank in range(n)]
        total = sum(weights)
        # Largest-remainder quotas: the request mix is exactly the power
        # law for every seed; only the order is drawn from the seed.
        exact = [requests * w / total for w in weights]
        quota = [int(x) for x in exact]
        by_remainder = sorted(range(n), key=lambda r: exact[r] - quota[r])
        for rank in by_remainder[n - (requests - sum(quota)):]:
            quota[rank] += 1
        out = []
        for rank, count in enumerate(quota):
            out.extend([ranking[rank]] * count)
        return [(index, k % WRONG_EVERY == 0) for k, index in enumerate(out)]

    return _setup(seed, stream)


class _Session:
    """One service with its client, and the bookkeeping of its answers."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.service = VerificationService(inputs.working_set.chain)
        self.client = ServiceClient(self.service, sleep=lambda _delay: None)
        # The service installed its affirmation cache on construction.
        self.affirmations = checker.AFFIRMATION_CACHE
        self.latencies_ms: list[float] = []
        self.failed = 0
        self.answers: list[str] = []  # "txid:index:status", in order

    def ask(self, index: int, wrong: bool, timed: bool = True) -> None:
        claim = self.inputs.working_set.claims[index]
        bundle = claim.wrong if wrong else claim.bundle
        start = time.perf_counter()
        verdict = self.client.verify(bundle)
        elapsed = time.perf_counter() - start
        want = "invalid" if wrong else self.inputs.expected[index]
        check_verdict(verdict, want, claim.label)
        if timed:
            self.latencies_ms.append(elapsed * 1e3)
            self.answers.append(
                f"{bundle.outpoint.txid.hex()}:{bundle.outpoint.index}"
                f":{verdict.status}"
            )
            if not verdict.is_verdict:
                self.failed += 1

    def counters(self) -> dict[str, int]:
        return {
            "service.memo_hits": self.service.memo.hits,
            "service.memo_misses": self.service.memo.misses,
            "service.affirmation_hits": self.affirmations.hits,
            "service.affirmation_misses": self.affirmations.misses,
            "service.shed": self.service.shed,
        }

    def close(self) -> None:
        self.service.close()


def _round(window: Window, sessions: list[_Session], counts: dict) -> Round:
    answers = [answer for s in sessions for answer in s.answers]
    return window.round(
        len(answers),
        sum(s.failed for s in sessions),
        [ms for s in sessions for ms in s.latencies_ms],
        sha256_hex(",".join(answers).encode()),
        counts,
    )


def round_cold(inputs: Inputs, tracer, _scratch, sizes: dict) -> Round:
    sessions = []
    window = Window(tracer)
    with window:
        with tracer.harness():
            for _ in range(sizes["passes"]):
                for index, wrong in inputs.requests:
                    # A service per request, not per pass: rich claims
                    # share upstream transactions, so within one service a
                    # claim's cost would depend on which came before it.
                    session = _Session(inputs)
                    sessions.append(session)
                    session.ask(index, wrong)
                    session.close()
    totals = [s.counters() for s in sessions]
    counts = {key: sum(t[key] for t in totals) for key in totals[0]}
    return _round(window, sessions, counts)


def round_warm(inputs: Inputs, tracer, _scratch, _sizes: dict) -> Round:
    session = _Session(inputs)
    try:
        for index in range(len(inputs.working_set.claims)):
            session.ask(index, wrong=False, timed=False)
        # The warm pass's own misses are not part of the measured stream.
        before = session.counters()
        window = Window(tracer)
        with window:
            with tracer.harness():
                for index, wrong in inputs.requests:
                    session.ask(index, wrong)
        after = session.counters()
    finally:
        session.close()
    counts = {key: after[key] - before[key] for key in after}
    return _round(window, [session], counts)
