"""A request costs one edge walk per upstream transaction, every time.

§3 has the verifier check "for each T ∈ 𝔗": linear in the upstream set.
The service's levelling used to re-walk every pending transaction at
every level (n(n+1)/2 walks for a chain of n); it now walks each one
once per request and keeps nothing between requests.  The same goes for
the rest of what a request does to a transaction — one encoding for the
memo's digest, at most one typecheck, of the object it was handed — and
for what a request that ran out of time leaves behind.
"""

import pytest

from bench.common import replay_verdict as replay
from repro import cancel
from repro.service.chaos import _service_world
from repro.core import verifier, wire
from repro.core.wire import decode_bundle, encode_bundle
from repro.service import VerificationService

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


@pytest.fixture
def calls(monkeypatch):
    """``calls(module, name)`` rebinds ``module.name`` to record the
    arguments of every call that returned, in the list it returns."""

    def counting(module, name):
        seen = []
        original = getattr(module, name)

        def recording(*args):
            result = original(*args)
            seen.append(args)
            return result

        monkeypatch.setattr(module, name, recording)
        return seen

    return counting


def test_depth_32_encodes_each_transaction_once_and_checks_what_it_was_handed(
    deep_world, calls
):
    net, valid, _ = deep_world
    wire_bytes = encode_bundle(valid)
    encoded = calls(verifier, "encode_transaction")
    decoded = calls(wire, "decode_transaction")
    checked = calls(verifier, "check_typecoin_transaction")

    def counts():
        return len(encoded), len(decoded), len(checked)

    service = VerificationService(net.chain)
    try:
        received = decode_bundle(wire_bytes)
        del decoded[:]
        assert service.verify(received).status == "ok"
        # The parent decoded each transaction again (32) to check a copy.
        assert counts() == (DEPTH, 0, DEPTH)
        presented = {id(txn) for txn in received.transactions.values()}
        assert {id(txn) for _ledger, txn, _world in checked} == presented

        # The same bytes again: a digest each, no typecheck.
        received = decode_bundle(wire_bytes)
        del encoded[:], decoded[:], checked[:]
        assert service.verify(received).status == "ok"
        assert counts() == (DEPTH, 0, 0)
    finally:
        service.close()

    # Without a memo there is nothing to derive a digest for.
    del encoded[:], checked[:]
    verifier.verify_claim(net.chain, valid)
    assert counts() == (0, 0, DEPTH)


@pytest.mark.parametrize("done", [0, 1, 17, DEPTH - 1])
def test_a_timed_out_request_leaves_exactly_what_it_finished(
    deep_world, calls, done
):
    """A transaction enters the memo only after its own check and
    registration completed, so a deadline that passes after ``done``
    transactions leaves ``done`` entries, and the next request checks
    the rest."""
    net, valid, _ = deep_world
    want = replay(net.chain, valid)
    checked = calls(verifier, "check_typecoin_transaction")
    # A clock that strikes when the ``done``-th typecheck has returned.
    deadline = cancel.Deadline(1.0, lambda: 2.0 if len(checked) >= done else 0.0)
    service = VerificationService(net.chain)
    try:
        verdict = service.verify(valid, deadline=deadline)
        assert verdict.status == "timeout"
        assert len(checked) == len(service.memo) == done
        del checked[:]
        assert service.verify(valid).status == want
        assert len(checked) == DEPTH - done
        assert len(service.memo) == DEPTH
    finally:
        service.close()
