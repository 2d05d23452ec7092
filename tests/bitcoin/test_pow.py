"""Tests for proof-of-work targets and difficulty retargeting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.pow import (
    MAX_TARGET,
    bits_to_target,
    block_work,
    check_proof_of_work,
    next_target,
    target_to_bits,
)


@given(st.integers(min_value=1, max_value=2**255))
@settings(max_examples=100)
def test_bits_roundtrip_preserves_magnitude(target):
    bits = target_to_bits(target)
    recovered = bits_to_target(bits)
    # Compact form keeps 3 bytes of mantissa: round trip is lossy but
    # the recovered value re-encodes exactly.
    assert target_to_bits(recovered) == bits
    assert recovered <= target
    assert recovered > target // 2**25  # mantissa precision bound


def test_known_mainnet_genesis_bits():
    # Bitcoin's genesis bits 0x1d00ffff decodes to the difficulty-1 target.
    assert bits_to_target(0x1D00FFFF) == MAX_TARGET
    assert target_to_bits(MAX_TARGET) == 0x1D00FFFF


def test_negative_target_rejected():
    with pytest.raises(ValueError):
        target_to_bits(0)
    with pytest.raises(ValueError):
        bits_to_target(0x1D800000)  # sign bit set


def test_check_proof_of_work():
    bits = target_to_bits(2**255)
    assert check_proof_of_work(b"\x00" * 32, bits)
    assert not check_proof_of_work(b"\xff" * 32, bits)


def test_block_work_inversely_proportional_to_target():
    easy = target_to_bits(2**250)
    hard = target_to_bits(2**240)
    assert block_work(hard) > block_work(easy)
    ratio = block_work(hard) / block_work(easy)
    # 2^250 has only one mantissa bit set, so integer division skews the
    # ratio a little; 2% tolerance covers the compact-encoding rounding.
    assert ratio == pytest.approx(2**10, rel=0.02)


class TestRetarget:
    def test_on_schedule_keeps_target(self):
        target = 2**220
        window, interval = 2016, 600
        elapsed = (window - 1) * interval
        assert next_target(target, 0, elapsed, window=window) == pytest.approx(
            target, rel=0.001
        )

    def test_fast_blocks_tighten_target(self):
        target = 2**220
        window, interval = 2016, 600
        elapsed = (window - 1) * interval // 2  # blocks twice as fast
        result = next_target(target, 0, elapsed, window=window)
        assert result == pytest.approx(target // 2, rel=0.001)

    def test_slow_blocks_loosen_target(self):
        target = 2**220
        window, interval = 2016, 600
        elapsed = (window - 1) * interval * 2
        result = next_target(target, 0, elapsed, window=window)
        assert result == pytest.approx(target * 2, rel=0.001)

    def test_adjustment_clamped_to_4x(self):
        target = 2**220
        window = 2016
        result = next_target(target, 0, 1, window=window)  # absurdly fast
        assert result == pytest.approx(target // 4, rel=0.001)
        result = next_target(target, 0, 10**12, window=window)  # absurdly slow
        assert result == pytest.approx(target * 4, rel=0.001)

    def test_never_easier_than_max_target(self):
        result = next_target(MAX_TARGET, 0, 10**12)
        assert result == MAX_TARGET
