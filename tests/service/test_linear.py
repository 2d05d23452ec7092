"""A request pays only for what its service has not been shown.

§3 has the verifier check "for each T ∈ 𝔗": linear in the upstream set.
A service's first request for a bundle typechecks each transaction once
and takes each one's edges from the references it holds: a decoded
transaction holds what its decoder read, so it is never walked, and a
constructed one is walked once in its lifetime (the levelling used to
re-walk every pending transaction at every level, n(n+1)/2 walks for a
chain of n).  What ``admit`` accepted is then held per carrier txid under
T's hash, so the same bytes presented again — decoded afresh, as a
prover's bytes arrive, so no state on an object can carry over — cost no
walk, no correspondence and no typecheck.  A new service, and
``verify_claim``, hold nothing.  A request that failed part-way holds
exactly what it finished.
"""

import pytest

from bench.common import replay_verdict as replay
from repro.service.chaos import _service_world
from repro.core import verifier
from repro.core.transaction import ClaimBundle
from repro.core.wire import decode_bundle, encode_bundle
from repro.lf.basis import Basis
from repro.service import VerificationService, server

from tests.oracles import rebuilt

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
        decoded = decode_bundle(wire_bytes)
        built = ClaimBundle(decoded.outpoint, decoded.prop, {
            txid: rebuilt(txn) for txid, txn in decoded.transactions.items()
        })
        # Decoded, T holds its references; built, it walks for them once.
        for received, walks in ((decoded, 0), (built, DEPTH)):
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
            assert counts == (walks, DEPTH, DEPTH)
            presented = {id(txn) for txn in received.transactions.values()}
            assert checked == presented
            assert walked == (presented if walks else set())


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


def test_a_warm_request_registers_the_held_records_and_forms_no_basis(
    deep_world, working_set, calls, monkeypatch
):
    """A repeat request whose transactions are all held costs its ledger
    a few dict stores: each output it registers is the record the memo
    holds (``Admission.resolved.outputs[i]``, not a copy), and it forms
    Σ_global not once (no ``Basis.extended``), also where the held
    transactions declare: their bases wait on the ledger's stack for a
    check that never comes."""
    ledgers = []
    verify = server._verify_claim

    def keeping(*args, **kwargs):
        ledgers.append(verify(*args, **kwargs))
        return ledgers[-1]

    monkeypatch.setattr(server, "_verify_claim", keeping)
    formed = calls(Basis, "extended")
    net, valid, _ = deep_world
    asked = [(net.chain, valid)]
    asked += [(working_set.chain, claim.bundle) for claim in working_set.claims]
    assert any(
        txn.basis for _, bundle in asked for txn in bundle.transactions.values()
    )
    for chain, bundle in asked:
        wire_bytes = encode_bundle(bundle)
        service = VerificationService(chain)
        try:
            assert service.verify(decode_bundle(wire_bytes)).status == "ok"
            repeat = decode_bundle(wire_bytes)
            del ledgers[:], formed[:]
            assert service.verify(repeat).status == "ok"
            assert service.memo.hits == len(repeat.transactions)
            assert formed == []
            [ledger] = ledgers
            for txid in repeat.transactions:
                held = service.memo.get(txid).resolved.outputs
                for index, record in enumerate(held):
                    assert ledger.outputs[(txid, index)] is record
            assert len(ledger.outputs) == sum(
                len(txn.outputs) for txn in repeat.transactions.values()
            )
        finally:
            service.close()


def test_a_new_service_typechecks_everything_again(deep_world, work):
    net, valid, _ = deep_world
    wire_bytes = encode_bundle(valid)
    for _ in range(2):
        service = VerificationService(net.chain)
        try:
            assert service.verify(decode_bundle(wire_bytes)).status == "ok"
        finally:
            service.close()
        assert work()[0] == (0, DEPTH, DEPTH)


def test_verify_claim_typechecks_everything_every_time(deep_world, work):
    net, valid, _ = deep_world
    service = VerificationService(net.chain)
    try:
        assert service.verify(valid).status == "ok"  # a warm service beside it
    finally:
        service.close()
    work()
    # No walk: the prover's objects read theirs building the bundle, and
    # the decoder records them.
    for bundle in (valid, valid, decode_bundle(encode_bundle(valid))):
        verifier.verify_claim(net.chain, bundle)
        assert work()[0] == (0, DEPTH, DEPTH)


@pytest.mark.parametrize("done", [0, 1, 17, DEPTH - 1])
def test_a_failed_request_leaves_exactly_what_it_finished(
    deep_world, calls, monkeypatch, done
):
    """A transaction enters the memo only after its own check and
    registration completed, so a request that fails after ``done``
    transactions leaves ``done`` entries, and the next request checks
    the rest."""
    net, valid, _ = deep_world
    want = replay(net.chain, valid)
    checked = calls(verifier, "check_typecoin_transaction")
    recording = verifier.check_typecoin_transaction

    def failing(*args):
        if len(checked) >= done:
            raise RuntimeError(f"injected failure after {done} checks")
        return recording(*args)

    monkeypatch.setattr(verifier, "check_typecoin_transaction", failing)
    service = VerificationService(net.chain)
    try:
        verdict = service.verify(valid)
        assert verdict.status == "error"
        assert len(checked) == len(service.memo) == done
        del checked[:]
        monkeypatch.setattr(verifier, "check_typecoin_transaction", recording)
        assert service.verify(valid).status == want
        assert len(checked) == DEPTH - done
        assert len(service.memo) == DEPTH
    finally:
        service.close()
