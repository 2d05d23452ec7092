"""The verification service: verdicts, memo, admission, lifecycle."""

import threading

import pytest

from repro import cancel
from repro.service import VerificationService
from repro.logic import checker as _checker


@pytest.fixture
def service(net):
    svc = VerificationService(net.chain)
    yield svc
    svc.close()


class TestVerdicts:
    def test_valid_claim_is_ok(self, service, valid_bundle):
        verdict = service.verify(valid_bundle)
        assert verdict.status == "ok", verdict.detail
        assert verdict.is_verdict

    def test_wrong_claimed_type_is_invalid(self, service, invalid_bundle):
        verdict = service.verify(invalid_bundle)
        assert verdict.status == "invalid"
        assert "claimed type" in verdict.detail
        assert verdict.is_verdict

    def test_expired_deadline_is_timeout_not_a_verdict(
        self, service, valid_bundle
    ):
        verdict = service.verify(
            valid_bundle, deadline=cancel.Deadline.after(-1.0)
        )
        assert verdict.status == "timeout"
        assert not verdict.is_verdict

    def test_verify_never_raises(self, net, valid_bundle, monkeypatch):
        svc = VerificationService(net.chain)
        try:
            monkeypatch.setattr(
                svc.memo, "lookup",
                lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
            )
            verdict = svc.verify(valid_bundle)
            assert verdict.status == "error"
            assert "boom" in verdict.detail
        finally:
            svc.close()


class TestMemo:
    def test_second_request_is_fully_memoized(self, service, valid_bundle):
        assert service.verify(valid_bundle).status == "ok"
        assert service.memo.hits == 0
        assert service.verify(valid_bundle).status == "ok"
        assert service.memo.hits == len(valid_bundle.transactions)

    def test_poisoned_entry_rejected_and_verdict_still_right(
        self, service, valid_bundle
    ):
        assert service.verify(valid_bundle).status == "ok"
        victim = next(iter(valid_bundle.transactions))
        service.memo.poison(victim, b"\x00" * 32)
        assert service.verify(valid_bundle).status == "ok"
        assert service.memo.poison_rejected == 1

    def test_memo_never_answers_for_an_invalid_claim(
        self, service, valid_bundle, invalid_bundle
    ):
        # Warm the memo with the shared upstream set...
        assert service.verify(valid_bundle).status == "ok"
        # ...the wrong-type claim over the same transactions must still
        # fail: the claim-equality tail is never memoized.
        assert service.verify(invalid_bundle).status == "invalid"


class TestAdmission:
    def test_zero_capacity_sheds_with_overloaded(self, net, valid_bundle):
        svc = VerificationService(net.chain, max_inflight=0)
        try:
            verdict = svc.verify(valid_bundle)
            assert verdict.status == "overloaded"
            assert not verdict.is_verdict
            assert svc.shed == 1
        finally:
            svc.close()

    def test_concurrent_burst_sheds_above_capacity(self, net, valid_bundle):
        svc = VerificationService(net.chain, max_inflight=1)
        release = threading.Event()
        original = svc._verify

        def gated(bundle, deadline):
            release.wait(timeout=10)
            return original(bundle, deadline)

        svc._verify = gated
        try:
            verdicts = [None, None]

            def fire(slot):
                verdicts[slot] = svc.verify(valid_bundle)

            threads = [
                threading.Thread(target=fire, args=(slot,)) for slot in (0, 1)
            ]
            threads[0].start()
            # Deterministic ordering: wait until the first request holds
            # the only slot before firing the second.
            while svc.health()["inflight"] == 0:
                pass
            threads[1].start()
            threads[1].join()  # the shed one returns immediately
            release.set()
            threads[0].join()
            statuses = sorted(v.status for v in verdicts)
            assert statuses == ["ok", "overloaded"]
        finally:
            svc.close()

    def test_draining_service_says_so(self, net, valid_bundle):
        svc = VerificationService(net.chain)
        try:
            assert svc.drain(timeout=1.0)
            verdict = svc.verify(valid_bundle)
            assert verdict.status == "draining"
            assert svc.health() == {
                "ready": False,
                "draining": True,
                "inflight": 0,
                "memo_entries": 0,
                "requests": 1,
                "shed": 0,
            }
        finally:
            svc.close()

    def test_drain_waits_for_inflight_request(self, net, valid_bundle):
        svc = VerificationService(net.chain)
        entered = threading.Event()
        release = threading.Event()
        original = svc._verify

        def gated(bundle, deadline):
            entered.set()
            release.wait(timeout=10)
            return original(bundle, deadline)

        svc._verify = gated
        done = {}

        def request():
            done["verdict"] = svc.verify(valid_bundle)

        thread = threading.Thread(target=request)
        thread.start()
        try:
            assert entered.wait(timeout=5)
            assert not svc.drain(timeout=0.05)  # still in flight
            release.set()
            assert svc.drain(timeout=5.0)
            thread.join(timeout=5)
            # The in-flight request finished with a real verdict.
            assert done["verdict"].status == "ok"
        finally:
            release.set()
            thread.join(timeout=5)
            svc.close()


class TestClose:
    def test_close_restores_prior_affirmation_cache(self, net):
        before = _checker.AFFIRMATION_CACHE
        svc = VerificationService(net.chain)
        assert _checker.AFFIRMATION_CACHE is svc._affirmations
        svc.close()
        assert _checker.AFFIRMATION_CACHE is before

    def test_close_is_idempotent(self, net):
        svc = VerificationService(net.chain)
        svc.close()
        svc.close()
