"""A request pays only for what its service has not been shown.

§3 has the verifier check "for each T ∈ 𝔗": linear in the upstream set.
A service's first request for a bundle walks each transaction once for
its edges (the levelling used to re-walk every pending transaction at
every level, n(n+1)/2 walks for a chain of n) and typechecks each once.
What ``admit`` accepted is then held per carrier txid under T's hash, so
the same bytes presented again — decoded afresh, as a prover's bytes
arrive, so no state on an object can carry over — cost no walk, no
correspondence and no typecheck.  A new service, and ``verify_claim``,
hold nothing.  A request that ran out of time holds exactly what it
finished.
"""

import pytest

from bench.common import replay_verdict as replay
from repro import cancel
from repro.service.chaos import _service_world
from repro.core import verifier
from repro.core.wire import decode_bundle, encode_bundle
from repro.service import VerificationService

DEPTH = 32


@pytest.fixture(scope="module")
def deep_world():
    return _service_world(DEPTH)


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


@pytest.fixture
def work(edge_walks, calls):
    """``work()`` is ``(walks, correspondences, typechecks)`` since the
    last call, and the transactions walked and typechecked."""
    corresponded = calls(verifier, "check_carrier_correspondence")
    checked = calls(verifier, "check_typecoin_transaction")

    def take():
        counts = (len(edge_walks), len(corresponded), len(checked))
        seen = (
            {id(txn) for txn in edge_walks},
            {id(txn) for _ledger, txn, _world in checked},
        )
        del edge_walks[:], corresponded[:], checked[:]
        return counts, seen

    return take


def test_a_first_request_walks_and_typechecks_each_transaction_once(
    deep_world, work
):
    net, valid, invalid = deep_world
    for bundle in (valid, invalid):
        wire_bytes = encode_bundle(bundle)
        expected = replay(net.chain, decode_bundle(wire_bytes))
        received = decode_bundle(wire_bytes)
        assert len(received.transactions) == DEPTH
        work()
        service = VerificationService(net.chain)
        try:
            verdict = service.verify(received)
        finally:
            service.close()
        assert verdict.status == expected, verdict.detail
        # The parent of the levelling made 528 = 32·33/2 walks here.
        (counts, (walked, checked)) = work()
        assert counts == (DEPTH, DEPTH, DEPTH)
        presented = {id(txn) for txn in received.transactions.values()}
        assert walked == checked == presented


def test_the_same_bytes_decoded_afresh_cost_a_warm_service_nothing(
    deep_world, work
):
    net, valid, invalid = deep_world
    service = VerificationService(net.chain)
    try:
        assert service.verify(decode_bundle(encode_bundle(valid))).status == "ok"
        work()
        for bundle, want in ((valid, "ok"), (invalid, "invalid"), (valid, "ok")):
            received = decode_bundle(encode_bundle(bundle))
            assert service.verify(received).status == want
            assert work()[0] == (0, 0, 0)
        # The same objects again, as the benchmark presents them: nothing.
        assert service.verify(valid).status == "ok"
        assert work()[0] == (0, 0, 0)
        assert service.memo.hits == 4 * DEPTH
    finally:
        service.close()


def test_a_new_service_walks_and_typechecks_everything_again(deep_world, work):
    net, valid, _ = deep_world
    wire_bytes = encode_bundle(valid)
    for _ in range(2):
        service = VerificationService(net.chain)
        try:
            assert service.verify(decode_bundle(wire_bytes)).status == "ok"
        finally:
            service.close()
        assert work()[0] == (DEPTH, DEPTH, DEPTH)


def test_verify_claim_walks_and_typechecks_everything_every_time(
    deep_world, work
):
    net, valid, _ = deep_world
    service = VerificationService(net.chain)
    try:
        assert service.verify(valid).status == "ok"  # a warm service beside it
    finally:
        service.close()
    work()
    for bundle in (valid, valid, decode_bundle(encode_bundle(valid))):
        verifier.verify_claim(net.chain, bundle)
        assert work()[0] == (DEPTH, DEPTH, DEPTH)


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
