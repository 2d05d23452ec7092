"""Seeded service-chaos scenarios: the no-wrong-verdict invariant."""

from repro.service.chaos import (
    MAX_INFLIGHT,
    SERVICE_PROFILES,
    ServiceChaosProfile,
    run_service_chaos,
)


class TestCalmProfile:
    def test_every_request_answered_correctly(self):
        result = run_service_chaos(SERVICE_PROFILES["service-calm"], seed=0)
        assert result.ok
        assert result.wrong_verdicts == 0
        # No faults configured: every request resolves to a verdict.
        assert result.statuses == {"ok": 9, "invalid": 3}
        assert result.shed == 0

    def test_deterministic_per_seed(self):
        first = run_service_chaos(SERVICE_PROFILES["service-calm"], seed=5)
        second = run_service_chaos(SERVICE_PROFILES["service-calm"], seed=5)
        assert first.statuses == second.statuses
        assert first.wrong_verdicts == second.wrong_verdicts == 0


class TestFaultPaths:
    def test_poisoning_is_rejected_not_believed(self):
        profile = ServiceChaosProfile(
            name="poison-only",
            requests=8,
            poison_every=2,
            invalid_every=3,
        )
        result = run_service_chaos(profile, seed=0)
        assert result.ok
        assert result.wrong_verdicts == 0
        assert result.poison_rejected > 0

    def test_overload_burst_sheds_exactly_the_excess(self):
        profile = ServiceChaosProfile(
            name="burst-only",
            requests=2,
            overload_burst=5,
        )
        result = run_service_chaos(profile, seed=0)
        assert result.ok
        assert result.shed == 5 - MAX_INFLIGHT
        # Two sequential requests, three admitted of the burst, two shed.
        assert result.statuses == {"ok": 5, "overloaded": 2}
