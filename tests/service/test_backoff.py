"""The shared backoff math: capping, jitter bounds, seeded divergence."""

import pytest

from repro.backoff import JITTER, backoff_delay, derive_rng


class Midpoint:
    """An rng whose every uniform draw is the middle of its band: the
    jitter factor is exactly 1, so a delay reads as its nominal value."""

    def uniform(self, low, high):
        return (low + high) / 2


class TestDelay:
    def test_doubles_until_cap(self):
        delays = [
            backoff_delay(n, base=1.0, cap=10.0, rng=Midpoint())
            for n in range(1, 7)
        ]
        assert delays == [1.0, 2.0, 4.0, 8.0, 10.0, 10.0]

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay(0, base=1.0, cap=10.0, rng=Midpoint())

    def test_jitter_band_is_multiplicative(self):
        rng = derive_rng("band-test")
        for attempt in range(1, 8):
            nominal = min(10.0, 2.0 ** (attempt - 1))
            delay = backoff_delay(attempt, base=1.0, cap=10.0, rng=rng)
            # Never near-zero (these double as timeouts), never above band.
            assert nominal * (1 - JITTER) <= delay <= nominal * (1 + JITTER)


class TestDeriveRng:
    def test_same_parts_same_stream(self):
        a = derive_rng("x", 1, "peer").random()
        b = derive_rng("x", 1, "peer").random()
        assert a == b

    def test_distinct_parts_diverge(self):
        streams = {
            derive_rng("x", seed, "peer").random() for seed in range(8)
        }
        assert len(streams) == 8

    def test_part_boundaries_matter(self):
        # ("ab", "c") and ("a", "bc") must not collide into one stream.
        assert (
            derive_rng("ab", "c").random() != derive_rng("a", "bc").random()
        )

    def test_jittered_sequences_from_distinct_seeds_diverge(self):
        def make(seed):
            rng = derive_rng("seq", seed)
            return [
                backoff_delay(n, base=1.0, cap=30.0, rng=rng)
                for n in range(1, 6)
            ]

        assert make(0) != make(1)
        assert make(0) == make(0)
