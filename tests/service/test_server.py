"""The verification service: verdicts, memo, admission, lifecycle."""

import sys
import threading

import pytest

from repro import obs
from repro.core.wire import decode_bundle, encode_bundle
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

    def test_each_verdict_counts_once_in_total_and_per_status(
        self, service, valid_bundle, invalid_bundle, monkeypatch
    ):
        monkeypatch.setattr(obs, "ENABLED", True)
        previous = obs.set_registry(obs.Registry())
        previous_log = obs.set_event_log(obs.EventLog())
        try:
            assert service.verify(valid_bundle).status == "ok"
            assert service.verify(invalid_bundle).status == "invalid"
            counters = obs.snapshot()["counters"]
        finally:
            obs.set_registry(previous)
            obs.set_event_log(previous_log)
        assert counters["service.verdicts_total"] == 2
        assert counters['service.verdicts_total{status="ok"}'] == 1
        assert counters['service.verdicts_total{status="invalid"}'] == 1

    def test_verify_never_raises(self, net, valid_bundle, monkeypatch):
        svc = VerificationService(net.chain)
        try:
            monkeypatch.setattr(
                svc.memo, "get",
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
        # Held by content, not by object: the same bytes decoded afresh hit.
        received = decode_bundle(encode_bundle(valid_bundle))
        assert service.verify(received).status == "ok"
        assert service.memo.hits == len(valid_bundle.transactions)
        assert len(service.memo) == len(valid_bundle.transactions)

    def test_a_request_reads_the_memo_once_per_transaction(
        self, service, valid_bundle, monkeypatch
    ):
        """All misses, then all hits: each presented txid is read from the
        memo's map once per request, and a hit does not read it again."""
        lru, reads = service.memo._lru, []
        get = lru.get
        monkeypatch.setattr(lru, "get", lambda key: reads.append(key) or get(key))
        presented = sorted(valid_bundle.transactions)
        assert service.verify(valid_bundle).status == "ok"
        assert (service.memo.misses, sorted(reads)) == (len(presented), presented)
        reads.clear()
        received = decode_bundle(encode_bundle(valid_bundle))
        assert service.verify(received).status == "ok"
        assert (service.memo.hits, sorted(reads)) == (len(presented), presented)

    def test_poisoned_entry_rejected_and_verdict_still_right(
        self, service, valid_bundle
    ):
        assert service.verify(valid_bundle).status == "ok"
        # The planted entry resolves to no outputs: believed, it would
        # lose the claimed txout and turn ``ok`` into ``invalid``.
        service.memo.poison(valid_bundle.outpoint.txid, b"\x00" * 32)
        assert service.verify(valid_bundle).status == "ok"
        assert service.memo.poison_rejected == 1
        assert service.memo.hits == len(valid_bundle.transactions) - 1

    def test_memo_never_answers_for_an_invalid_claim(
        self, service, valid_bundle, invalid_bundle
    ):
        # Warm the memo with the shared upstream set...
        assert service.verify(valid_bundle).status == "ok"
        # ...the wrong-type claim over the same transactions must still
        # fail: the claim-equality tail is never memoized.
        assert service.verify(invalid_bundle).status == "invalid"
        assert service.memo.hits == len(invalid_bundle.transactions)

    def test_concurrent_requests_share_held_entries(
        self, net, valid_bundle, invalid_bundle
    ):
        """Eight threads on a switch interval of a microsecond, each asking
        about freshly decoded bundles through one service: every verdict
        is right, and every lookup is counted exactly once."""
        threads_n, rounds = 8, 10
        wire = {
            "ok": encode_bundle(valid_bundle),
            "invalid": encode_bundle(invalid_bundle),
        }
        svc = VerificationService(net.chain, max_inflight=threads_n)
        wrong = []

        def ask(first):
            for k in range(rounds):
                want = ("ok", "invalid")[(first + k) % 2]
                verdict = svc.verify(decode_bundle(wire[want]))
                if verdict.status != want:
                    wrong.append(verdict)

        threads = [
            threading.Thread(target=ask, args=(i,)) for i in range(threads_n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        size = len(valid_bundle.transactions)
        assert svc.memo.hits + svc.memo.misses == threads_n * rounds * size
        assert svc.memo.poison_rejected == 0
        assert len(svc.memo) == size


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
        holding = threading.Event()
        original = svc._verify

        def gated(bundle):
            holding.set()
            release.wait(timeout=10)
            return original(bundle)

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
            assert holding.wait(timeout=10)
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
            assert (svc.requests, svc.shed, len(svc.memo)) == (1, 0, 0)
        finally:
            svc.close()

    def test_drain_waits_for_inflight_request(self, net, valid_bundle):
        svc = VerificationService(net.chain)
        entered = threading.Event()
        release = threading.Event()
        original = svc._verify

        def gated(bundle):
            entered.set()
            release.wait(timeout=10)
            return original(bundle)

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

    def test_overlapping_services_leave_the_newest_live_cache(self, net):
        """A and B alive, closed A first: closing in start order once left
        B without its cache, then restored A's closed one."""
        before = _checker.AFFIRMATION_CACHE
        a = VerificationService(net.chain)
        b = VerificationService(net.chain)
        try:
            assert _checker.AFFIRMATION_CACHE is b._affirmations
            a.close()
            assert _checker.AFFIRMATION_CACHE is b._affirmations
        finally:
            a.close()
            b.close()
        assert _checker.AFFIRMATION_CACHE is before
        assert _checker.AFFIRMATION_CACHE is not a._affirmations
        c = VerificationService(net.chain)
        d = VerificationService(net.chain)
        d.close()
        assert _checker.AFFIRMATION_CACHE is c._affirmations
        c.close()
        assert _checker.AFFIRMATION_CACHE is before

    def test_no_live_service_leaves_no_cache(self, net):
        for _ in range(2):
            VerificationService(net.chain).close()
        assert _checker.AFFIRMATION_CACHE is None

    def test_close_is_idempotent(self, net):
        svc = VerificationService(net.chain)
        svc.close()
        svc.close()
