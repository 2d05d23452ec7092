"""A request costs one edge walk per upstream transaction, every time.

§3 has the verifier check "for each T ∈ 𝔗": linear in the upstream set.
The service's levelling used to re-walk every pending transaction at
every level (n(n+1)/2 walks for a chain of n); it now walks each one
once per request and keeps nothing between requests.
"""

import pytest

from bench.common import replay_verdict as replay
from repro.bitcoin.faults import _service_world
from repro.core.wire import decode_bundle, encode_bundle
from repro.service import VerificationService
from repro.service.breaker import OPEN, CircuitBreaker

DEPTH = 32


@pytest.fixture(scope="module")
def deep_world():
    return _service_world(DEPTH)


def test_depth_32_costs_32_edge_walks_on_every_request(deep_world, edge_walks):
    net, valid, invalid = deep_world
    for bundle in (valid, invalid):
        wire_bytes = encode_bundle(bundle)
        expected = replay(net.chain, decode_bundle(wire_bytes))
        service = VerificationService(net.chain)
        try:
            for _ in range(2):
                # Fresh objects each time, as a prover's bytes arrive: no
                # state on a transaction object could carry over.
                received = decode_bundle(wire_bytes)
                assert len(received.transactions) == DEPTH
                del edge_walks[:]
                verdict = service.verify(received)
                assert verdict.status == expected, verdict.detail
                # The parent made 528 = 32·33/2 here.
                assert len(edge_walks) == DEPTH
                assert {id(txn) for txn in edge_walks} == {
                    id(txn) for txn in received.transactions.values()
                }
        finally:
            service.close()


def test_the_same_objects_are_walked_again_on_the_next_request(
    deep_world, edge_walks
):
    """Nothing is memoised on the bundle either: re-presenting the very
    same objects (what the benchmark does) costs the same walks."""
    net, valid, _ = deep_world
    service = VerificationService(net.chain)
    try:
        for _ in range(3):
            del edge_walks[:]
            assert service.verify(valid).status == "ok"
            assert len(edge_walks) == DEPTH
    finally:
        service.close()


class _UnusedPool:
    """Stands where a pool would: with the breaker open it is never run."""

    def run(self, jobs, deadline=None):
        raise AssertionError("the open breaker should have kept us away")

    def close(self):
        pass


@pytest.mark.parametrize("mode", ["pooled", "serial", "cache-off"])
def test_verdicts_equal_the_replay_on_the_working_set(working_set, mode):
    """Every claim and its wrong-type twin, in each rung of the ladder."""
    chain = working_set.chain
    if mode == "pooled":
        service = VerificationService(chain, workers=2)
    elif mode == "serial":
        service = VerificationService(chain)
    else:
        breaker = CircuitBreaker(reset_timeout=float("inf"))
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state == OPEN
        service = VerificationService(
            chain, pool=_UnusedPool(), breaker=breaker
        )
    try:
        for claim in working_set.claims:
            for bundle in (claim.bundle, claim.wrong):
                verdict = service.verify(bundle)
                assert verdict.status == replay(chain, bundle), (
                    claim.label, verdict.detail,
                )
                assert verdict.degraded == (mode == "cache-off")
    finally:
        service.close()
