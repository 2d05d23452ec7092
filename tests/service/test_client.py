"""Client retry policy: what retries, how delays grow, how seeds differ."""

import pytest

from repro.backoff import JITTER
from repro.service.client import (
    BASE_DELAY,
    MAX_DELAY,
    RETRYABLE_STATUSES,
    ServiceClient,
)
from repro.service.server import Verdict


class ScriptedService:
    """Returns a scripted sequence of statuses, then repeats the last."""

    def __init__(self, *statuses):
        self.statuses = list(statuses)
        self.calls = 0

    def verify(self, bundle):
        index = min(self.calls, len(self.statuses) - 1)
        self.calls += 1
        return Verdict(self.statuses[index])


def make_client(service, **kwargs):
    kwargs.setdefault("sleep", lambda _delay: None)
    return ServiceClient(service, **kwargs)


class TestPolicy:
    def test_ok_returns_immediately(self):
        service = ScriptedService("ok")
        client = make_client(service)
        assert client.verify(object()).status == "ok"
        assert service.calls == 1
        assert client.retries == 0

    def test_invalid_is_final_never_retried(self):
        service = ScriptedService("invalid", "ok")
        client = make_client(service)
        assert client.verify(object()).status == "invalid"
        assert service.calls == 1

    def test_draining_is_terminal(self):
        service = ScriptedService("draining", "ok")
        client = make_client(service)
        assert client.verify(object()).status == "draining"
        assert service.calls == 1

    @pytest.mark.parametrize("transient", sorted(RETRYABLE_STATUSES))
    def test_transient_statuses_retry_until_verdict(self, transient):
        service = ScriptedService(transient, transient, "ok")
        client = make_client(service)
        assert client.verify(object()).status == "ok"
        assert service.calls == 3
        assert client.retries == 2
        assert client.last_attempts == 3

    def test_exhausted_attempts_return_last_transient(self):
        service = ScriptedService("overloaded")
        client = make_client(service, max_attempts=3)
        assert client.verify(object()).status == "overloaded"
        assert service.calls == 3
        assert client.retries == 2

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            make_client(ScriptedService("ok"), max_attempts=0)


class TestBackoff:
    def recorded_delays(self, seed, attempts=5):
        delays = []
        service = ScriptedService("overloaded")
        client = ServiceClient(
            service,
            max_attempts=attempts,
            seed=seed,
            sleep=delays.append,
        )
        client.verify(object())
        return delays

    def test_delays_grow_and_cap(self):
        service = ScriptedService("overloaded")
        delays = []
        client = ServiceClient(service, max_attempts=10, sleep=delays.append)
        client.verify(object())
        nominal = [min(MAX_DELAY, BASE_DELAY * 2 ** (k - 1)) for k in range(1, 10)]
        assert nominal == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0, 2.0]
        assert len(delays) == len(nominal)
        for delay, want in zip(delays, nominal):
            assert want * (1 - JITTER) <= delay <= want * (1 + JITTER)

    def test_distinct_seeds_give_divergent_jitter(self):
        a = self.recorded_delays(seed=0)
        b = self.recorded_delays(seed=1)
        assert len(a) == len(b) == 4
        assert a != b

    def test_same_seed_reproduces_exactly(self):
        assert self.recorded_delays(seed=7) == self.recorded_delays(seed=7)

    def test_jitter_stays_within_band(self):
        for delay, nominal in zip(
            self.recorded_delays(seed=3), [0.05, 0.1, 0.2, 0.4]
        ):
            assert nominal * 0.8 <= delay <= nominal * 1.2
