"""Tests for the UMON-style utilization monitor."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.monitor.umon import UNFED, UNSAMPLED, UMONMonitor, _mix64
from repro.monitor.window import COLD_DISTANCE, ReuseDistanceTracker
from repro.sim.cache import SetAssociativeCache

SIZES = [4, 8, 16, 32]


class TestConstruction:
    def test_sizes_must_be_ascending_unique(self):
        with pytest.raises(ConfigurationError):
            UMONMonitor([8, 4])
        with pytest.raises(ConfigurationError):
            UMONMonitor([4, 4])

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            UMONMonitor(SIZES, window=0)

    def test_bad_sampling(self):
        with pytest.raises(ConfigurationError):
            UMONMonitor(SIZES, sampling_shift=-1)


class TestHitCurves:
    def test_curve_nondecreasing(self):
        """Stack inclusion: more capacity never means fewer hits."""
        monitor = UMONMonitor(SIZES)
        rng = np.random.default_rng(0)
        for addr in rng.integers(0, 40, size=500):
            monitor.observe(int(addr))
        curve = monitor.hits_per_size()
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_scan_curve_is_step(self):
        """A cyclic scan of 10 lines hits only at sizes > 9."""
        monitor = UMONMonitor(SIZES)
        for _ in range(5):
            for addr in range(10):
                monitor.observe(addr)
        curve = monitor.hits_per_size()
        assert curve[0] == 0  # size 4
        assert curve[1] == 0  # size 8
        assert curve[2] > 0  # size 16 captures the scan
        assert curve[2] == curve[3]

    def test_curve_matches_fa_lru_caches(self):
        """The monitor's prediction equals real FA LRU caches of each size."""
        monitor = UMONMonitor(SIZES, window=10_000)
        caches = [SetAssociativeCache(1, size) for size in SIZES]
        rng = np.random.default_rng(1)
        addresses = rng.integers(0, 30, size=800)
        hits = [0] * len(SIZES)
        for addr in addresses:
            monitor.observe(int(addr))
            for k, cache in enumerate(caches):
                if cache.access(int(addr)):
                    hits[k] += 1
        assert monitor.hits_per_size().tolist() == pytest.approx(hits)

    def test_misses_at_size(self):
        monitor = UMONMonitor(SIZES, window=10_000)
        for addr in [1, 1, 2, 2]:
            monitor.observe(addr)
        assert monitor.misses_at_size(len(SIZES) - 1) == pytest.approx(2.0)


class TestWindowing:
    def test_reset_window_clears_counts_not_stack(self):
        monitor = UMONMonitor(SIZES)
        monitor.observe(1)
        monitor.reset_window()
        assert monitor.hits_per_size().sum() == 0
        monitor.observe(1)  # still warm in the stack: an immediate hit
        assert monitor.hits_per_size()[0] == 1.0

    def test_clear_forgets_stack(self):
        monitor = UMONMonitor(SIZES)
        monitor.observe(1)
        monitor.clear()
        monitor.observe(1)
        assert monitor.hits_per_size().sum() == 0  # cold again

    def test_aging_halves_counts(self):
        monitor = UMONMonitor(SIZES, window=10)
        for _ in range(20):
            monitor.observe(1)
        # Aging kept the epoch mass near the window size.
        assert monitor.epoch_accesses() <= 11

    def test_total_observed_counts_everything(self):
        monitor = UMONMonitor(SIZES, sampling_shift=2)
        for addr in range(16):
            monitor.observe(addr)
        assert monitor.total_observed == 16


class TestSampling:
    def test_sampling_scales_counts(self):
        dense = UMONMonitor(SIZES, window=100_000)
        sampled = UMONMonitor(SIZES, window=100_000, sampling_shift=1)
        rng = np.random.default_rng(2)
        # A universe much larger than 2**shift, so the hash-sampled
        # subset is a representative half of the addresses.
        addresses = rng.integers(0, 512, size=20_000)
        for addr in addresses:
            dense.observe(int(addr))
            sampled.observe(int(addr))
        dense_curve = dense.hits_per_size()
        sampled_curve = sampled.hits_per_size()
        # Sampled estimate within 30% of the dense count at the top size.
        assert sampled_curve[-1] == pytest.approx(dense_curve[-1], rel=0.3)

    def test_sampled_observed_counts_filter_survivors(self):
        monitor = UMONMonitor(SIZES, sampling_shift=2)
        for addr in range(64):
            monitor.observe(addr)
        assert 0 < monitor.sampled_observed < monitor.total_observed == 64

    def test_sampled_observed_equals_total_without_sampling(self):
        monitor = UMONMonitor(SIZES)
        for addr in range(16):
            monitor.observe(addr)
        assert monitor.sampled_observed == monitor.total_observed == 16

    def test_sampled_observed_batched_matches_scalar(self):
        batched = UMONMonitor(SIZES, sampling_shift=1)
        scalar = UMONMonitor(SIZES, sampling_shift=1)
        addrs = list(range(200))
        batched.observe_codes(_codes(addrs, SIZES, 1))
        for addr in addrs:
            scalar.observe(addr)
        assert batched.sampled_observed == scalar.sampled_observed > 0

    def test_clear_resets_sampled_observed(self):
        monitor = UMONMonitor(SIZES)
        monitor.observe(1)
        monitor.clear()
        assert monitor.sampled_observed == 0

    def test_strided_stream_sampled_fairly(self):
        """A stride that is a multiple of ``2**shift`` samples ~1/2**shift.

        Regression: the monitor used to mask raw low address bits, so a
        stride-aligned stream was sampled at exactly 100% (offset 0) or
        0% (any other offset), biasing the hits-per-size curve.
        """
        shift = 2
        stride = 1 << shift
        n = 4096
        for offset in (0, 1):
            monitor = UMONMonitor(SIZES, window=10**9, sampling_shift=shift)
            for i in range(n):
                monitor.observe(i * stride + offset)
            # epoch_accesses scales the sampled count back up by 2**shift.
            sampled = monitor.epoch_accesses() / (1 << shift)
            assert 0.15 < sampled / n < 0.35, f"offset={offset}"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_curve_never_exceeds_observed_accesses(seed):
    monitor = UMONMonitor(SIZES, window=100_000)
    rng = np.random.default_rng(seed)
    n = 300
    for addr in rng.integers(0, 20, size=n):
        monitor.observe(int(addr))
    assert monitor.hits_per_size()[-1] <= n


def _codes(addrs, sizes, shift, fed=None) -> np.ndarray:
    """The monitor-trace codes of an address run, computed independently.

    Mirrors :meth:`UMONMonitor.observe` decision by decision on its own
    tracker; ``fed`` (default: all) marks which accesses the monitor is
    offered at all.
    """
    tracker = ReuseDistanceTracker()
    mask = (1 << shift) - 1
    codes = []
    for index, addr in enumerate(addrs):
        if fed is not None and not fed[index]:
            codes.append(UNFED)
        elif _mix64(addr) & mask:
            codes.append(UNSAMPLED)
        else:
            distance = tracker.observe(addr)
            if distance == COLD_DISTANCE:
                codes.append(len(sizes))
            else:
                codes.append(bisect.bisect_right(sizes, distance << shift))
    return np.array(codes, dtype=np.uint8)


def _monitor_state(monitor):
    """Every windowed observable (code-fed monitors keep no stack)."""
    return (
        monitor.total_observed,
        monitor.sampled_observed,
        monitor.hits_per_size().tolist(),
        monitor.epoch_accesses(),
    )


class TestObserveCodes:
    """Replaying trace codes is bit-identical to observing addresses."""

    @settings(max_examples=30, deadline=None)
    @given(
        shift=st.sampled_from([0, 1, 3]),
        window=st.sampled_from([50, 100_000]),
        runs=st.lists(
            st.lists(
                st.tuples(st.integers(0, 60), st.booleans()),
                min_size=0,
                max_size=80,
            ),
            min_size=1,
            max_size=4,
        ),
        scalar_codes=st.booleans(),
    )
    def test_matches_observe_loop(self, shift, window, runs, scalar_codes):
        flat = [access for run in runs for access in run]
        codes = _codes(
            [addr for addr, _ in flat], SIZES, shift, [fed for _, fed in flat]
        )
        coded = UMONMonitor(SIZES, window=window, sampling_shift=shift)
        scalar = UMONMonitor(SIZES, window=window, sampling_shift=shift)
        start = 0
        for run in runs:
            chunk = codes[start : start + len(run)]
            start += len(run)
            if scalar_codes:
                for code in chunk.tolist():
                    coded.observe_code(code)
            else:
                coded.observe_codes(chunk)
            for addr, fed in run:
                if fed:
                    scalar.observe(addr)
            assert _monitor_state(coded) == _monitor_state(scalar)

    def test_small_window_halving_sequence_is_exact(self):
        """The mid-run aging halvings replay bit-for-bit."""
        coded = UMONMonitor(SIZES, window=8)
        scalar = UMONMonitor(SIZES, window=8)
        addrs = (np.arange(100) % 12).tolist()
        coded.observe_codes(_codes(addrs, SIZES, 0))
        for addr in addrs:
            scalar.observe(addr)
        assert _monitor_state(coded) == _monitor_state(scalar)


@settings(max_examples=30, deadline=None)
@given(addrs=st.lists(st.integers(0, 2**62), min_size=1, max_size=50))
def test_mix64_array_matches_scalar_mix64(addrs):
    """The vectorized SplitMix64 equals the scalar per-address hash."""
    from repro.monitor.umon import _mix64, mix64_array

    hashes = mix64_array(np.array(addrs, dtype=np.int64))
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [_mix64(a) for a in addrs]
