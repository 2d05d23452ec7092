"""Seeded fault injection for the verification service — the chaos
philosophy of :mod:`repro.bitcoin.faults`, one layer up: memo poisoning,
wrong-type requests and an overload burst, scored against a trusted plain
``verify_claim`` replay.  Trouble may withhold an answer, never change one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.backoff import derive_rng
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.verifier import VerificationError, verify_claim
from repro.core.wallet import TypecoinClient
from repro.logic.propositions import One, Tensor
from repro.service.client import ServiceClient
from repro.service.server import VerificationService


@dataclass(frozen=True)
class ServiceChaosProfile:
    """A seeded fault schedule for the verification service.

    The ``*_every`` fields fire their injection immediately before every
    Nth request (0 disables).  ``invalid_every`` swaps in a bundle whose
    claimed type is wrong — a request whose *correct* verdict is
    ``invalid`` — so the no-wrong-verdict invariant is tested in both
    directions, not just "never reject a good claim".
    """

    name: str
    depth: int = 6  # upstream-set depth of the claim chain
    requests: int = 30  # sequential requests driven through the client
    max_inflight: int = 3
    poison_every: int = 0  # plant a wrong memo entry (hash check must catch)
    invalid_every: int = 0  # requests whose correct verdict is ``invalid``
    overload_burst: int = 0  # concurrent burst fired once, mid-run
    request_timeout: float | None = None  # per-attempt client deadline
    max_attempts: int = 4  # client retry budget


@dataclass
class ServiceChaosResult:
    """Outcome of one seeded service-chaos run."""

    profile: str
    seed: int
    statuses: dict = field(default_factory=dict)  # status -> count
    wrong_verdicts: int = 0  # verdicts disagreeing with the oracle
    answered: int = 0  # requests that got a real verdict (ok/invalid)
    poison_rejected: int = 0  # wrong memo entries caught by hash check
    shed: int = 0  # admissions refused with ``overloaded``
    retries: int = 0  # client-side retry attempts

    @property
    def ok(self) -> bool:
        """The invariant: every verdict matched the trusted replay, and
        chaos didn't starve the run of answers entirely."""
        return self.wrong_verdicts == 0 and self.answered > 0


SERVICE_PROFILES: dict[str, ServiceChaosProfile] = {
    # No faults: a baseline every verdict of which must be ``ok``/
    # ``invalid`` exactly as the oracle says.
    "service-calm": ServiceChaosProfile(
        name="service-calm", requests=12, invalid_every=4
    ),
    # The acceptance scenario: memo poisoning, wrong-claim requests, and
    # one concurrent overload burst.
    "service-inferno": ServiceChaosProfile(
        name="service-inferno",
        requests=30,
        poison_every=4,
        invalid_every=3,
        overload_burst=8,
        max_attempts=3,
    ),
}


def _service_world(depth: int):
    """A regtest chain carrying one claim of the given upstream depth.

    Returns ``(net, valid_bundle, invalid_bundle)`` where the invalid
    bundle claims the wrong type for the same txout.
    """
    net = RegtestNetwork()
    client = TypecoinClient(net, b"service-chaos", Ledger())
    net.fund_wallet(client.wallet, blocks=2)

    txn = simple_transfer([], [TypecoinOutput(One(), 600, client.pubkey)])
    carrier = client.submit(txn)
    net.confirm(1)
    client.sync()
    outpoint = OutPoint(carrier.txid, 0)
    for _ in range(depth - 1):
        txn = simple_transfer(
            [client.input_for(outpoint)],
            [TypecoinOutput(One(), 600, client.pubkey)],
        )
        carrier = client.submit(txn)
        net.confirm(1)
        client.sync()
        outpoint = OutPoint(carrier.txid, 0)
    valid = client.claim_bundle(outpoint, One())
    invalid = client.claim_bundle(outpoint, Tensor(One(), One()))
    return net, valid, invalid


def run_service_chaos(
    profile: ServiceChaosProfile, seed: int = 0
) -> ServiceChaosResult:
    """Drive the verification service through a seeded fault schedule.

    Every request's expected verdict comes from a trusted oracle — a
    plain :func:`repro.core.verifier.verify_claim` replay run before any
    fault fires — and the result counts every service verdict that
    disagrees.  Infrastructure statuses (``timeout`` /
    ``overloaded`` / ``error`` / ``draining``) are legitimate non-answers
    and never count as wrong: the service may fail to answer under
    chaos, but it may never answer incorrectly.
    """
    net, valid_bundle, invalid_bundle = _service_world(profile.depth)

    # The trusted replay: no memo, no admission, no deadline.
    def oracle(bundle) -> str:
        try:
            verify_claim(net.chain, bundle)
            return "ok"
        except VerificationError:
            return "invalid"

    expected = {"valid": oracle(valid_bundle), "invalid": oracle(invalid_bundle)}
    assert expected == {"valid": "ok", "invalid": "invalid"}

    rng = derive_rng("service-chaos", profile.name, seed)
    service = VerificationService(
        net.chain, max_inflight=profile.max_inflight
    )
    client = ServiceClient(
        service,
        max_attempts=profile.max_attempts,
        request_timeout=profile.request_timeout,
        seed=seed,
        sleep=lambda _delay: None,  # schedule computed, not slept
    )
    result = ServiceChaosResult(profile=profile.name, seed=seed)
    statuses: dict[str, int] = {}
    chain_txids = list(valid_bundle.transactions)

    def fires(every: int, i: int) -> bool:
        return every > 0 and (i + 1) % every == 0

    def score(verdict, want: str) -> None:
        statuses[verdict.status] = statuses.get(verdict.status, 0) + 1
        if verdict.is_verdict:
            result.answered += 1
            if verdict.status != want:
                result.wrong_verdicts += 1

    burst_at = profile.requests // 2 if profile.overload_burst else -1
    for i in range(profile.requests):
        if fires(profile.poison_every, i):
            service.memo.poison(rng.choice(chain_txids), b"\x00" * 32)
        if i == burst_at:
            # Concurrent burst straight at the service (no retry layer).
            # Each request waits for the rest of the burst — an admitted
            # one at the door, holding its slot; a shed one on its way
            # out — so exactly the excess over ``max_inflight`` sheds as
            # ``overloaded`` whatever the thread scheduler does, and the
            # ones that do get through must still be right.
            verdicts = [None] * profile.overload_burst
            arrived = threading.Barrier(profile.overload_burst)
            admitted = service._verify

            def held(bundle, deadline):
                arrived.wait(timeout=30.0)
                return admitted(bundle, deadline)

            def fire(slot: int) -> None:
                verdict = verdicts[slot] = service.verify(valid_bundle)
                if verdict.status == "overloaded":
                    arrived.wait(timeout=30.0)

            threads = [
                threading.Thread(target=fire, args=(slot,))
                for slot in range(profile.overload_burst)
            ]
            service._verify = held
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                del service._verify
            for verdict in verdicts:
                score(verdict, expected["valid"])
        if fires(profile.invalid_every, i):
            score(client.verify(invalid_bundle), expected["invalid"])
        else:
            score(client.verify(valid_bundle), expected["valid"])

    service.close(timeout=30.0)
    result.statuses = statuses
    result.poison_rejected = service.memo.poison_rejected
    result.shed = service.shed
    result.retries = client.retries
    return result
