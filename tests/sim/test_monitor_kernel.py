"""Differential tests: the compiled monitor walks against their Python loops.

``repro.sim._lru`` carries two entry points for the utility monitor:
``reuse_walk`` steps :class:`~repro.monitor.window.StreamReuseWalk`'s
array state (a Fenwick tree and a last timestamp per line id), and
``umon_feed`` replays :meth:`~repro.monitor.umon.UMONMonitor.observe_codes`'
windowed bin accumulation. Both claim *bit-identical* results to the
Python loops they replace, which stay as the fallback without the
compiled module. These tests drive both through randomized runs —
int32 and int64 addresses, cold and heavily reused lines, empty and
one-element runs, trees grown across calls, windows that halve every
few codes — and compare every observable with ``==``; a
:class:`~repro.sim.hierarchy.MonitorTrace` must walk the same passes
and find its cycle at the same pass with and without the module.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotations import AnnotationVector
from repro.monitor.umon import UNFED, UNSAMPLED, UMONMonitor
from repro.monitor.window import ReuseDistanceTracker, StreamReuseWalk
from repro.sim import hierarchy
from repro.sim.cpu import InstructionStream
from repro.sim.hierarchy import L1ServiceTrace, MonitorTrace
from repro.sim.native import lru_kernel

SIZES = (4, 8, 16, 32)

pytestmark = pytest.mark.skipif(
    lru_kernel() is None, reason="the compiled LRU module is unavailable"
)


# ----------------------------------------------------------------------
# Reuse walk
# ----------------------------------------------------------------------
def _check_walk(addrs: np.ndarray, runs: list[np.ndarray]) -> None:
    """Compiled, fallback and per-address tracker agree run by run."""
    compiled = StreamReuseWalk(lru_kernel(), addrs)
    fallback = StreamReuseWalk(None, addrs)
    scalar = ReuseDistanceTracker()
    values = addrs.tolist()
    for fed in runs:
        expected = [scalar.observe(values[i]) for i in fed.tolist()]
        got = compiled.observe_at(fed)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert fallback.observe_at(fed).tolist() == expected
        assert compiled.recency_order() == scalar.recency_order()
        assert fallback.recency_order() == scalar.recency_order()


_RUNS = st.lists(
    st.lists(st.integers(0, 199), min_size=0, max_size=120),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=40),
    picks=st.lists(st.integers(0, 10_000), min_size=200, max_size=200),
    runs=_RUNS,
)
def test_reuse_walk_matches_observe_int32(lines, picks, runs):
    addrs = np.array([lines[p % len(lines)] for p in picks], dtype=np.int32)
    _check_walk(addrs, [np.array(run, dtype=np.int64) for run in runs])


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(st.integers(2**31, 2**62), min_size=1, max_size=40),
    picks=st.lists(st.integers(0, 10_000), min_size=200, max_size=200),
    runs=_RUNS,
)
def test_reuse_walk_matches_observe_int64_above_2_31(lines, picks, runs):
    addrs = np.array([lines[p % len(lines)] for p in picks], dtype=np.int64)
    _check_walk(addrs, [np.array(run, dtype=np.int64) for run in runs])


def test_reuse_walk_all_cold_and_heavy_reuse():
    rng = np.random.default_rng(0)
    cold = np.arange(500, dtype=np.int64) * 7919
    _check_walk(cold, [np.arange(500), np.arange(0)])
    heavy = rng.integers(0, 3, size=600).astype(np.int32)
    _check_walk(heavy, [np.arange(600), np.arange(600)[::-1].copy()])


def test_reuse_walk_empty_and_one_element_runs():
    addrs = np.array([5, 9, 5, 5, 9], dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    _check_walk(addrs, [empty, np.array([0]), empty, np.array([2]),
                        np.array([1]), np.array([3]), empty])
    walk = StreamReuseWalk(lru_kernel(), addrs)
    assert walk.observe_at(empty).shape == (0,)
    assert walk.recency_order() == b""


def test_reuse_walk_grows_its_tree_across_calls():
    """Runs past the first capacity (1024) and across two doublings."""
    rng = np.random.default_rng(1)
    addrs = rng.integers(0, 300, size=1500).astype(np.int64)
    everything = np.arange(1500, dtype=np.int64)
    walk = StreamReuseWalk(lru_kernel(), addrs)
    start = walk._tree.shape[0]
    _check_walk(addrs, [everything[:700], everything[700:], everything,
                        everything[::3].copy()])
    for run in (everything[:700], everything[700:], everything):
        walk.observe_at(run)
    assert walk._tree.shape[0] > 2 * (start - 1)


def test_reuse_walk_rejects_bad_input_untouched():
    kernel = lru_kernel()
    addrs = np.array([1, 2, 3], dtype=np.int64)
    walk = StreamReuseWalk(kernel, addrs)
    walk.observe_at(np.array([0, 1], dtype=np.int64))
    tree, last = walk._tree.copy(), walk._last.copy()
    out = np.empty(2, dtype=np.int64)
    with pytest.raises(IndexError):
        kernel.reuse_walk(walk._tree, walk._last, walk._ids,
                          np.array([2, 3], dtype=np.int64), walk._clock, out)
    with pytest.raises(ValueError):
        small = np.zeros(2, dtype=np.int64)
        kernel.reuse_walk(small, walk._last, walk._ids,
                          np.array([0, 1], dtype=np.int64), 0, out)
    assert np.array_equal(walk._tree, tree) and np.array_equal(walk._last, last)


# ----------------------------------------------------------------------
# UMON bin feed
# ----------------------------------------------------------------------
def _feed_pair(codes: np.ndarray, window: int, shift: int, chunks: int = 3):
    """One monitor fed per code, one by compiled runs; returns both."""
    scalar = UMONMonitor(SIZES, window=window, sampling_shift=shift)
    compiled = UMONMonitor(SIZES, window=window, sampling_shift=shift)
    for code in codes.tolist():
        scalar.observe_code(code)
    for piece in np.array_split(codes, chunks):
        compiled.observe_codes(piece)
    assert compiled._feed is lru_kernel().umon_feed
    return scalar, compiled


def _assert_same(a: UMONMonitor, b: UMONMonitor) -> None:
    assert a._bins.tolist() == b._bins.tolist()
    assert a._epoch_accesses == b._epoch_accesses
    assert a.total_observed == b.total_observed
    assert a.sampled_observed == b.sampled_observed
    assert a.hits_per_size().tolist() == b.hits_per_size().tolist()


_CODES = st.lists(
    st.one_of(
        st.integers(0, len(SIZES)), st.sampled_from([UNFED, UNSAMPLED])
    ),
    min_size=0,
    max_size=400,
)


@settings(max_examples=60, deadline=None)
@given(
    codes=_CODES,
    window=st.sampled_from([1, 2, 3, 5, 8, 13, 100, 100_000]),
    shift=st.integers(0, 3),
    chunks=st.integers(1, 5),
)
def test_bin_feed_matches_observe_code(codes, window, shift, chunks):
    """Windows down to 1 halve every code or every few codes."""
    codes = np.array(codes, dtype=np.uint8)
    scalar, compiled = _feed_pair(codes, window, shift, chunks)
    _assert_same(scalar, compiled)
    fallback = UMONMonitor(SIZES, window=window, sampling_shift=shift)
    fallback._feed = False
    for piece in np.array_split(codes, chunks):
        fallback.observe_codes(piece)
    _assert_same(scalar, fallback)


@pytest.mark.parametrize("code", [UNFED, UNSAMPLED])
def test_bin_feed_all_unfed_or_all_unsampled(code):
    codes = np.full(303, code, dtype=np.uint8)
    codes[:3] = (1, 2, 4)
    scalar, compiled = _feed_pair(codes, 2, 1)
    _assert_same(scalar, compiled)
    assert compiled.sampled_observed == 3
    assert compiled.total_observed == (303 if code == UNSAMPLED else 3)


def test_bin_feed_long_run_of_halvings():
    rng = np.random.default_rng(2)
    codes = rng.integers(0, len(SIZES) + 1, size=20_000).astype(np.uint8)
    scalar, compiled = _feed_pair(codes, 7, 2, chunks=9)
    _assert_same(scalar, compiled)


def test_bin_feed_rejects_a_bin_past_the_sizes():
    monitor = UMONMonitor(SIZES, window=4)
    monitor.observe_codes(np.array([0, 1], dtype=np.uint8))
    bins = monitor._bins.copy()
    with pytest.raises(IndexError):
        monitor.observe_codes(np.array([2, len(SIZES) + 1], dtype=np.uint8))
    assert monitor._bins.tolist() == bins.tolist()


def test_a_window_past_double_precision_uses_the_python_loop():
    monitor = UMONMonitor(SIZES, window=2**53 + 1)
    monitor.observe_codes(np.array([0, 1, UNFED], dtype=np.uint8))
    assert monitor._feed is False
    assert monitor.sampled_observed == 2


# ----------------------------------------------------------------------
# Monitor traces with and without the module
# ----------------------------------------------------------------------
def _stream(seed: int, n: int, lines: int, high: bool) -> InstructionStream:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, lines, size=n).astype(np.int64)
    if high:
        addrs += 2**40
    excluded = rng.random(n) < 0.3
    return InstructionStream(
        addrs, AnnotationVector(excluded, np.zeros_like(excluded))
    )


@pytest.mark.parametrize("filtered", [True, False])
@pytest.mark.parametrize("shift", [0, 2])
@pytest.mark.parametrize("seed,n,lines,high", [
    (0, 240, 96, False),
    (1, 900, 400, True),
    (2, 3000, 1200, False),
])
def test_monitor_trace_identical_without_the_module(
    tiny_arch, monkeypatch, filtered, shift, seed, n, lines, high
):
    stream = _stream(seed, n, lines, high)

    def walked():
        l1_trace = L1ServiceTrace(stream, tiny_arch)
        trace = MonitorTrace(stream, tiny_arch, SIZES, shift, filtered,
                             l1_trace=l1_trace)
        trace.warm()
        return trace

    compiled = walked()
    with monkeypatch.context() as patch:
        patch.setattr(hierarchy, "lru_kernel", lambda: None)
        fallback = walked()
    assert compiled.cycle_found and fallback.cycle_found
    assert compiled.passes_walked == fallback.passes_walked
    assert compiled._passes == fallback._passes
