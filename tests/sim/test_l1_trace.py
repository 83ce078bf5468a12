"""Unit tests for the L1 service trace and the traced resolve path.

The trace is the batched kernel's only source of L1 decisions, so these
tests pin it directly — the cyclic walk, the packed-bit lookups, the
walk-to-the-cycle contract, geometry checking — and drive a traced
``DomainMemory`` through the resolve/commit discipline, partial commits
included, against scalar ``access()`` calls on an untraced twin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.core.annotations import AnnotationVector
from repro.errors import SimulationError
from repro.sim.cpu import Core, CoreConfig, InstructionStream
from repro.sim.hierarchy import (
    DomainMemory,
    L1ServiceTrace,
    MemoryLevel,
    MonitorTrace,
)
from repro.sim.kernelmode import KERNEL_ENV, make_cache
from repro.sim.partition import PartitionedLLC, SharedLLC
from repro.sim.stats import DomainStats


def _cyclic(addrs: np.ndarray, start: int, n: int) -> np.ndarray:
    """Positions [start, start+n) of the cyclic stream over ``addrs``."""
    period = addrs.shape[0]
    idx = (np.arange(start, start + n)) % period
    return addrs[idx]


@pytest.fixture()
def stream_addrs() -> np.ndarray:
    rng = np.random.default_rng(7)
    # Enough distinct lines to force L1 misses and evictions on the
    # tiny machine (16 lines / 4 ways), with reuse for hits.
    return rng.integers(0, 96, size=400, dtype=np.int64)


def _trace(addrs: np.ndarray, arch: ArchConfig) -> L1ServiceTrace:
    return L1ServiceTrace(InstructionStream(addrs), arch)


class TestTraceWalk:
    def test_matches_live_l1_walk(self, tiny_arch, stream_addrs):
        trace = _trace(stream_addrs, tiny_arch)
        n = 3 * stream_addrs.shape[0] + 37  # multiple wraps, ragged stop
        got = trace.hits(0, n)

        l1_sets = max(1, tiny_arch.l1_lines // tiny_arch.l1_associativity)
        replica = make_cache(l1_sets, tiny_arch.l1_associativity)
        expected, _ = replica.access_run(_cyclic(stream_addrs, 0, n))
        assert np.array_equal(got, expected)

    def test_slices_are_stable_across_growth(self, tiny_arch, stream_addrs):
        trace = _trace(stream_addrs, tiny_arch)
        early = trace.hits(0, 50).copy()
        view = trace.hits(0, 50)
        # Walk on to the cycle and read far past it, then re-check.
        trace.hits(0, 6 * stream_addrs.shape[0])
        assert np.array_equal(view, early)
        assert np.array_equal(trace.hits(0, 50), early)

    def test_single_and_range_lookups_agree_across_bytes(
        self, tiny_arch, stream_addrs
    ):
        trace = _trace(stream_addrs, tiny_arch)
        period = stream_addrs.shape[0]
        n = 4 * period + 13
        whole = trace.hits(0, n)
        singles = [bool(trace.hit(pos)) for pos in range(n)]
        assert whole.tolist() == singles
        # Ranges starting and stopping at every offset within a byte,
        # inside the first pass and straddling pass boundaries.
        for base in (0, period - 20, 3 * period - 20):
            for start in range(base, base + 40):
                for stop in (start, start + 1, start + 7, start + 8,
                             start + 9, start + 97):
                    assert trace.hits(start, stop).tolist() == singles[start:stop]

    def test_warm_walks_to_the_cycle(self, tiny_arch, stream_addrs):
        trace = _trace(stream_addrs, tiny_arch)
        trace.warm()
        # LRU state after any pass >= 1 is the same: pass 1 repeats,
        # found after walking two passes; the walk state is dropped.
        assert trace.cycle_found
        assert trace.passes_walked == 2
        assert trace._cache is None and trace._addrs is None
        trace.warm()  # a second warm walks nothing
        period = stream_addrs.shape[0]
        far = 1000 * period + 7
        assert trace.hits(far, far + 2 * period).tolist() == (
            trace.hits(period + 7, period + 7 + 2 * period).tolist()
        )
        assert trace.hit(far) == trace.hit(period + 7)
        assert trace.passes_walked == 2

    def test_empty_stream(self, tiny_arch):
        trace = _trace(np.array([-1, -1], dtype=np.int64), tiny_arch)
        trace.warm()  # a no-op, not an error
        with pytest.raises(ValueError):
            trace.hits(0, 1)

    def test_for_stream_filters_stall_slots(self, tiny_arch):
        stream = InstructionStream(
            np.array([5, -1, 7, -1, 9], dtype=np.int64),
            stall_cycles=np.array([0, 3, 0, 0, 0], dtype=np.int64),
        )
        trace = L1ServiceTrace(stream, tiny_arch)
        assert trace._period == 3  # -1 stall slots dropped
        # Addresses 5, 7, 9 miss cold, then hit on every later pass.
        assert trace.hits(0, 6).tolist() == [False] * 3 + [True] * 3


def _annotated(addrs: np.ndarray, seed: int = 11) -> InstructionStream:
    """A stream over ``addrs`` with a quarter of the accesses secret."""
    excluded = np.random.default_rng(seed).random(addrs.shape[0]) < 0.25
    return InstructionStream(
        addrs, AnnotationVector(excluded, np.zeros_like(excluded))
    )


def _make_memory(arch: ArchConfig, organization: str = "partitioned"):
    if organization == "partitioned":
        llc = PartitionedLLC(
            arch.llc_lines,
            arch.llc_associativity,
            arch.num_cores,
            arch.default_partition_lines,
        )
    else:
        llc = SharedLLC(arch.llc_lines, arch.llc_associativity, arch.num_cores)
    return DomainMemory(arch, llc.view(0), monitor=RecordingMonitor()), llc


def _install_traces(memory: DomainMemory, stream, arch: ArchConfig) -> None:
    """Install an L1 and a monitor trace over ``stream``, as a core does."""
    l1_trace = L1ServiceTrace(stream, arch)
    memory.install_l1_trace(l1_trace, stream)
    memory.install_monitor_trace(
        MonitorTrace(stream, arch, *memory.monitor_trace_spec, l1_trace=l1_trace)
    )


class TestInstall:
    def test_geometry_mismatch_raises(self, tiny_arch, stream_addrs):
        other = ArchConfig.scaled()
        assert (other.l1_lines, other.l1_associativity) != (
            tiny_arch.l1_lines,
            tiny_arch.l1_associativity,
        )
        stream = InstructionStream(stream_addrs)
        trace = L1ServiceTrace(stream, other)
        memory, _ = _make_memory(tiny_arch)
        with pytest.raises(ValueError, match="geometry"):
            memory.install_l1_trace(trace, stream)
        with pytest.raises(ValueError, match="geometry"):
            memory.install_monitor_trace(
                MonitorTrace(InstructionStream(stream_addrs), other, (), 0, True)
            )

    def test_resolve_without_trace_raises(self, tiny_arch, stream_addrs):
        memory, _ = _make_memory(tiny_arch)
        assert memory.l1_trace is None
        with pytest.raises(SimulationError, match="trace"):
            memory.resolve_levels(16, stream_addrs[:16])
        # A monitored memory needs its monitor trace too.
        stream = InstructionStream(stream_addrs)
        memory.install_l1_trace(L1ServiceTrace(stream, tiny_arch), stream)
        with pytest.raises(SimulationError, match="monitor trace"):
            memory.resolve_levels(16, stream_addrs[:16])
        with pytest.raises(SimulationError, match="monitor trace"):
            memory.access(int(stream_addrs[0]))

    def test_batched_core_always_carries_a_trace(
        self, tiny_arch, stream_addrs, monkeypatch
    ):
        def core(mode: str, jitter: int = 0) -> Core:
            monkeypatch.setenv(KERNEL_ENV, mode)
            memory, _ = _make_memory(tiny_arch)
            return Core(
                domain=0,
                stream=InstructionStream(stream_addrs),
                memory=memory,
                arch=tiny_arch,
                core_config=CoreConfig(timing_jitter=jitter),
                stats=DomainStats(domain=0),
            )

        batched = core("batched")
        assert batched.memory.l1_trace is not None
        assert batched.memory.monitor_trace.spec == ((), 0, True)
        # Cores on the scalar path walk the live L1 instead.
        assert core("batched", jitter=3).memory.l1_trace is None
        assert core("reference").memory.l1_trace is None


class RecordingMonitor:
    def __init__(self):
        self.observed: list[int] = []

    def observe(self, line_addr):
        self.observed.append(line_addr)


class TestTracedDifferential:
    """Traced resolve/commit/settle against scalar ``access()`` on an untraced twin."""

    def _drive(self, tiny_arch, stream_addrs, commit_plan, organization):
        stream = _annotated(stream_addrs)
        excluded = stream.annotations.metric_excluded
        traced, traced_llc = _make_memory(tiny_arch, organization)
        scalar, scalar_llc = _make_memory(tiny_arch, organization)
        _install_traces(traced, stream, tiny_arch)

        pos = 0
        for block_len, count in commit_plan:
            block = _cyclic(stream_addrs, pos, block_len)
            flags = _cyclic(excluded, pos, count)
            levels, latencies = traced.resolve_levels(block_len, block)
            traced.commit_levels(levels[:count])
            traced.settle()
            expected = [
                scalar.access(int(block[i]), bool(flags[i]))
                for i in range(count)
            ]
            assert latencies[:count].tolist() == expected
            pos += count

        assert traced.level_counts == scalar.level_counts
        # Eviction counts are not modeled on the traced L1, but the
        # served hit/miss counts must agree.
        assert traced.l1.stats.hits == scalar.l1.stats.hits
        assert traced.l1.stats.misses == scalar.l1.stats.misses
        assert traced.monitor.observed == scalar.monitor.observed
        assert traced.level_counts[MemoryLevel.L1] > 0
        assert traced.level_counts[MemoryLevel.DRAM] > 0
        # The LLC genuinely walked both twins identically, rollback
        # replays included.
        t_stats = traced_llc.stats_of(0)
        s_stats = scalar_llc.stats_of(0)
        assert (t_stats.hits, t_stats.misses) == (s_stats.hits, s_stats.misses)

    def test_full_commits(self, tiny_arch, stream_addrs):
        plan = [(60, 60)] * 9  # wraps past the period
        for organization in ("partitioned", "shared"):
            self._drive(tiny_arch, stream_addrs, plan, organization)

    def test_partial_commits_roll_back_and_replay(self, tiny_arch, stream_addrs):
        plan = [(50, 50), (64, 23), (64, 0), (40, 40), (80, 17), (64, 64)]
        for organization in ("partitioned", "shared"):
            self._drive(tiny_arch, stream_addrs, plan, organization)
