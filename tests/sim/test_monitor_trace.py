"""Tests for the per-stream monitor trace and the monitors it feeds.

A :class:`~repro.sim.hierarchy.MonitorTrace` fixes, per memory-access
position, everything :meth:`UMONMonitor.observe
<repro.monitor.umon.UMONMonitor.observe>` decides about an access: is it
fed, does set sampling keep it, which bin its reuse distance lands in.
These tests pin the trace against direct simulation past its cycle, and
drive trace-fed monitors through the batched kernel's discipline —
partial commits with rollback, scalar ``access()`` mop-ups, window
resets — against the ``observe`` oracle on an untraced twin.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.core.annotations import AnnotationVector
from repro.errors import ConfigurationError
from repro.monitor.umon import UNFED, UNSAMPLED, UMONMonitor, _mix64
from repro.monitor.window import COLD_DISTANCE, ReuseDistanceTracker
from repro.sim.cpu import InstructionStream
from repro.sim.hierarchy import DomainMemory, L1ServiceTrace, MonitorTrace
from repro.sim.kernelmode import make_cache
from repro.sim.partition import PartitionedLLC

SIZES = (4, 8, 16, 32)
FEEDS = [True, False]
SHIFTS = [0, 3]


def _stream(seed: int, n: int = 240, lines: int = 96) -> InstructionStream:
    """Random accesses over more lines than the tiny L1, 30% secret."""
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, lines, size=n).astype(np.int64)
    excluded = rng.random(n) < 0.3
    return InstructionStream(
        addrs, AnnotationVector(excluded, np.zeros_like(excluded))
    )


def _traces(stream, arch, shift, filtered, sizes=SIZES):
    l1_trace = L1ServiceTrace(stream, arch)
    return l1_trace, MonitorTrace(
        stream, arch, sizes, shift, filtered, l1_trace=l1_trace
    )


def _direct_codes(stream, arch, shift, filtered, passes) -> list[int]:
    """Codes for ``passes`` whole passes by direct simulation, no cycle."""
    sets = max(1, arch.l1_lines // arch.l1_associativity)
    l1 = make_cache(sets, arch.l1_associativity)
    shadow = make_cache(sets, arch.l1_associativity)
    tracker = ReuseDistanceTracker()
    addrs = stream.addresses.tolist()
    excluded = stream.annotations.metric_excluded.tolist()
    codes = []
    for _ in range(passes):
        for addr, secret in zip(addrs, excluded):
            l1_hit = l1.access(addr)
            if filtered:
                fed = not secret and not shadow.access(addr)
            else:
                fed = not l1_hit
            if not fed:
                codes.append(UNFED)
            elif _mix64(addr) & ((1 << shift) - 1):
                codes.append(UNSAMPLED)
            else:
                distance = tracker.observe(addr)
                codes.append(
                    len(SIZES)
                    if distance == COLD_DISTANCE
                    else bisect.bisect_right(SIZES, distance << shift)
                )
    return codes


class TestCycle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("filtered", FEEDS)
    @pytest.mark.parametrize("shift", SHIFTS)
    def test_repeats_within_two_and_three_passes(
        self, tiny_arch, seed, filtered, shift
    ):
        l1_trace, trace = _traces(_stream(seed), tiny_arch, shift, filtered)
        trace.warm()
        l1_trace.warm()
        assert l1_trace.cycle_found and l1_trace.passes_walked <= 2
        assert trace.cycle_found and trace.passes_walked <= 3

    @pytest.mark.parametrize("filtered", FEEDS)
    @pytest.mark.parametrize("shift", SHIFTS)
    def test_codes_past_the_cycle_match_direct_simulation(
        self, tiny_arch, filtered, shift
    ):
        stream = _stream(5)
        period = stream.length
        passes = 6
        expected = _direct_codes(stream, tiny_arch, shift, filtered, passes + 2)
        assert UNFED in expected and min(expected) < UNSAMPLED
        _, trace = _traces(stream, tiny_arch, shift, filtered)
        whole = trace.codes(0, passes * period)
        assert trace.cycle_found and trace.passes_walked < passes
        assert whole.tolist() == expected[: passes * period]
        # Single reads and ranges across every pass boundary, wrapped
        # reads included, agree with the direct walk.
        assert [trace.code(p) for p in range(passes * period)] == (
            expected[: passes * period]
        )
        for boundary in range(period, passes * period, period):
            for start, stop in ((boundary - 5, boundary + 9),
                                (boundary - 1, boundary + period + 3)):
                assert trace.codes(start, stop).tolist() == expected[start:stop]

    def test_codes_are_one_byte_per_walked_position(self, tiny_arch):
        _, trace = _traces(_stream(7), tiny_arch, 3, True)
        trace.warm()
        assert sum(len(p) for p in trace._passes) == (
            trace.passes_walked * trace._period
        )
        assert trace._tracker is None and trace._filter is None
        assert trace._addrs is None and trace._sampled is None

    def test_feed_only_trace_skips_the_tracker(self, tiny_arch):
        stream = _stream(9)
        _, trace = _traces(stream, tiny_arch, 0, True, sizes=())
        codes = trace.codes(0, 4 * stream.length)
        assert set(codes.tolist()) == {0, UNFED}
        reference = _direct_codes(stream, tiny_arch, 0, True, 4)
        assert [c != UNFED for c in codes.tolist()] == [
            c != UNFED for c in reference
        ]


class TestConstruction:
    def test_too_many_sizes_rejected(self, tiny_arch):
        with pytest.raises(ConfigurationError, match="253"):
            MonitorTrace(_stream(0), tiny_arch, tuple(range(1, 255)), 0, True)

    def test_unfiltered_needs_a_matching_l1_trace(self, tiny_arch):
        stream = _stream(0)
        with pytest.raises(ValueError, match="L1 trace"):
            MonitorTrace(stream, tiny_arch, SIZES, 0, False)
        other = L1ServiceTrace(stream, ArchConfig.scaled())
        with pytest.raises(ValueError, match="L1 trace"):
            MonitorTrace(stream, tiny_arch, SIZES, 0, False, l1_trace=other)

    def test_install_checks_the_monitor_spec(self, tiny_arch):
        memory, _ = _memory(tiny_arch, True, 0, window=100)
        _, trace = _traces(_stream(0), tiny_arch, 3, True)
        with pytest.raises(ValueError, match="encodes"):
            memory.install_monitor_trace(trace)
        _, unfiltered = _traces(_stream(0), tiny_arch, 0, False)
        with pytest.raises(ValueError, match="encodes"):
            memory.install_monitor_trace(unfiltered)


def _memory(arch, filtered, shift, window):
    llc = PartitionedLLC(
        arch.llc_lines,
        arch.llc_associativity,
        arch.num_cores,
        arch.default_partition_lines,
    )
    monitor = UMONMonitor(SIZES, window=window, sampling_shift=shift)
    memory = DomainMemory(
        arch, llc.view(0), monitor=monitor,
        monitor_respects_annotations=filtered,
    )
    return memory, monitor


def _monitor_state(monitor: UMONMonitor) -> tuple:
    return (
        monitor.total_observed,
        monitor.sampled_observed,
        monitor.hits_per_size().tolist(),
        monitor.epoch_accesses(),
    )


@pytest.mark.parametrize("filtered", FEEDS)
@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("seed", [0, 1])
def test_trace_fed_monitor_matches_observe_oracle(tiny_arch, filtered, shift, seed):
    """Bin for bin and counter for counter, across at least five passes.

    The traced memory commits random prefixes of walked-ahead runs
    (settling the rest back), mops up with scalar ``access()`` calls, and
    both monitors reset their windows at the same points; the untraced
    twin feeds ``UMONMonitor.observe`` through the live L1 and shadow
    filter.
    """
    stream = _stream(seed)
    addrs = stream.addresses
    excluded = stream.annotations.metric_excluded
    period = stream.length
    traced, traced_monitor = _memory(tiny_arch, filtered, shift, window=40)
    oracle, oracle_monitor = _memory(tiny_arch, filtered, shift, window=40)
    l1_trace, trace = _traces(stream, tiny_arch, shift, filtered)
    traced.install_l1_trace(l1_trace, stream)
    traced.install_monitor_trace(trace)

    rng = np.random.default_rng(100 + seed)
    pos = 0
    resets = partials = mopups = 0
    while pos < 6 * period:
        if rng.random() < 0.2:
            for _ in range(int(rng.integers(1, 6))):
                index = pos % period
                assert traced.access(int(addrs[index])) == oracle.access(
                    int(addrs[index]), bool(excluded[index])
                )
                pos += 1
            mopups += 1
        else:
            n = int(rng.integers(1, 40))
            window = np.arange(pos, pos + n) % period
            levels, latencies = traced.resolve_levels(n, addrs[window])
            k = int(rng.integers(0, n + 1)) if rng.random() < 0.4 else n
            partials += k < n
            traced.commit_levels(levels[:k])
            traced.settle()
            expected = [
                oracle.access(int(addrs[i]), bool(excluded[i]))
                for i in window[:k]
            ]
            assert latencies[:k].tolist() == expected
            pos += k
        if rng.random() < 0.1:
            traced_monitor.reset_window()
            oracle_monitor.reset_window()
            resets += 1
        assert _monitor_state(traced_monitor) == _monitor_state(oracle_monitor)
    assert resets and partials and mopups
    assert trace.cycle_found
    assert traced_monitor.sampled_observed > 0
    if shift:
        assert traced_monitor.sampled_observed < traced_monitor.total_observed
