"""Unit tests for the LLC service trace and the fixed-latency core path.

A fixed, private set partition sees only its own domain's L1-missing
subsequence, so the level that serves each access is a function of the
stream. These tests pin the trace against a direct walk of a live L1
and a partition cache, its walk-to-the-cycle contract and footprint,
the fixed-partition premise it rests on, and that a batched Static run
then never walks or rolls back an LLC.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.harness import experiment
from repro.harness.runconfig import TEST
from repro.sim import hierarchy
from repro.sim.cache import SetAssociativeCache
from repro.sim.cpu import Core, CoreConfig, InstructionStream
from repro.sim.hierarchy import (
    DomainMemory,
    L1ServiceTrace,
    LLCServiceTrace,
    MemoryLevel,
)
from repro.sim.kernelmode import make_cache
from repro.sim.partition import PartitionedLLC, PartitionView, SharedLLC
from repro.sim.stats import DomainStats

#: A 4-set, 4-way partition: small enough that the stream below both
#: hits and misses in it.
GEOMETRY = (4, 4)


@pytest.fixture()
def stream_addrs() -> np.ndarray:
    rng = np.random.default_rng(5)
    return rng.integers(0, 96, size=400, dtype=np.int64)


def _traces(addrs: np.ndarray, arch) -> tuple[L1ServiceTrace, LLCServiceTrace]:
    stream = InstructionStream(addrs)
    l1_trace = L1ServiceTrace(stream, arch)
    return l1_trace, LLCServiceTrace(stream, arch, GEOMETRY, l1_trace)


def _direct_levels(addrs: np.ndarray, arch, n: int) -> list[int]:
    """Levels of positions [0, n) from a live L1 and partition cache."""
    l1 = make_cache(
        max(1, arch.l1_lines // arch.l1_associativity), arch.l1_associativity
    )
    llc = make_cache(*GEOMETRY)
    levels = []
    for pos in range(n):
        addr = int(addrs[pos % addrs.shape[0]])
        if l1.access(addr):
            levels.append(MemoryLevel.L1)
        elif llc.access(addr):
            levels.append(MemoryLevel.LLC)
        else:
            levels.append(MemoryLevel.DRAM)
    return levels


def _fixed_memory(arch, lines: int = 16) -> DomainMemory:
    llc = PartitionedLLC(
        arch.llc_lines, 4, arch.num_cores, lines, resizable=False
    )
    return DomainMemory(arch, llc.view(0))


class TestTraceWalk:
    def test_matches_direct_walk_past_the_cycle(self, tiny_arch, stream_addrs):
        _, trace = _traces(stream_addrs, tiny_arch)
        period = stream_addrs.shape[0]
        n = 6 * period + 29
        expected = _direct_levels(stream_addrs, tiny_arch, n)
        assert set(expected) == set(MemoryLevel)
        assert trace.levels(0, n).tolist() == expected
        assert [trace.level(pos) for pos in range(n)] == expected
        assert trace.cycle_found and trace.passes_walked < 6
        # Reads inside one pass and straddling pass boundaries.
        for base in (0, period - 5, 3 * period - 5, 5 * period + 17):
            for stop in (base, base + 1, base + 9, base + period + 3):
                assert trace.levels(base, stop).tolist() == expected[base:stop]

    @pytest.mark.parametrize("block", [1, 7, 64, 399])
    def test_block_walks_match_and_stop_at_the_read(
        self, tiny_arch, stream_addrs, block, monkeypatch
    ):
        """Blocks shorter than a pass walk only up to the next block
        multiple past the furthest read, yet give the same levels."""
        monkeypatch.setattr(hierarchy, "LLC_TRACE_BLOCK", block)
        _, trace = _traces(stream_addrs, tiny_arch)
        period = stream_addrs.shape[0]
        n = 4 * period + 11
        expected = _direct_levels(stream_addrs, tiny_arch, n)
        read = 0
        for start, stop in ((0, 3), (3, 40), (40, 41), (41, period + 5)):
            assert trace.levels(start, stop).tolist() == expected[start:stop]
            read = stop
            walked = min(-(-(read % period) // block) * block, period)
            assert trace.positions_walked == (read // period) * period + walked
        assert trace.passes_walked == 1
        assert trace.level(period + 9) == expected[period + 9]
        assert trace.levels(0, n).tolist() == expected
        assert [trace.level(pos) for pos in range(n)] == expected
        assert trace.cycle_found
        assert trace.positions_walked == trace.passes_walked * period
        assert trace._partial is None

    def test_repeat_found_within_three_passes(self, tiny_arch, stream_addrs):
        l1_trace, trace = _traces(stream_addrs, tiny_arch)
        trace.warm()
        assert trace.cycle_found
        assert trace.passes_walked <= 3
        # The walk read the L1 trace, which found its own cycle first.
        assert l1_trace.cycle_found

    def test_one_byte_per_position_and_walk_state_dropped(
        self, tiny_arch, stream_addrs
    ):
        _, trace = _traces(stream_addrs, tiny_arch)
        trace.warm()
        period = stream_addrs.shape[0]
        assert all(len(p) == period for p in trace._passes)
        assert sum(map(len, trace._passes)) == trace.passes_walked * period
        assert trace._cache is None and trace._addrs is None
        assert trace._l1 is None and trace._state is None
        assert trace._partial is None
        assert trace._stream is None

    def test_rejects_an_l1_trace_of_another_geometry(self, tiny_arch, scaled_arch):
        stream = InstructionStream(np.arange(8, dtype=np.int64))
        with pytest.raises(ValueError, match="L1"):
            LLCServiceTrace(
                stream, tiny_arch, GEOMETRY, L1ServiceTrace(stream, scaled_arch)
            )


class TestFixedPartition:
    def test_fixed_llc_cannot_resize(self):
        llc = PartitionedLLC(64, 4, 2, 16, resizable=False)
        with pytest.raises(SimulationError, match="fixed"):
            llc.resize(0, 32)
        assert llc.size_of(0) == 16

    def test_only_fixed_private_views_expose_a_geometry(self):
        fixed = PartitionedLLC(64, 4, 2, 16, resizable=False)
        assert fixed.view(1).fixed_geometry == (4, 4)
        assert PartitionedLLC(64, 4, 2, 16).view(1).fixed_geometry is None
        assert SharedLLC(64, 4, 2).view(1).fixed_geometry is None

    def test_install_rejects_a_geometry_mismatch(self, tiny_arch, stream_addrs):
        _, trace = _traces(stream_addrs, tiny_arch)
        with pytest.raises(ValueError, match="geometry"):
            _fixed_memory(tiny_arch, lines=32).install_llc_trace(trace)
        resizable = PartitionedLLC(tiny_arch.llc_lines, 4, tiny_arch.num_cores, 16)
        with pytest.raises(ValueError, match="geometry"):
            DomainMemory(tiny_arch, resizable.view(0)).install_llc_trace(trace)
        memory = _fixed_memory(tiny_arch)
        memory.install_llc_trace(trace)
        assert memory.llc_trace is trace

    def test_batched_core_installs_an_llc_trace_only_when_fixed(
        self, tiny_arch, stream_addrs
    ):
        def core(memory):
            return Core(0, InstructionStream(stream_addrs), memory, tiny_arch,
                        CoreConfig(), DomainStats(domain=0))

        fixed = core(_fixed_memory(tiny_arch)).memory
        assert fixed.llc_trace is not None
        assert fixed.llc_trace.geometry == GEOMETRY
        resizable = PartitionedLLC(tiny_arch.llc_lines, 4, tiny_arch.num_cores, 16)
        memory = core(DomainMemory(tiny_arch, resizable.view(0))).memory
        assert memory.llc_trace is None


class TestFixedResolve:
    """Level resolves and commits against scalar ``access()`` calls."""

    def test_install_l1_trace_installs_the_llc_trace(self, tiny_arch, stream_addrs):
        stream = InstructionStream(stream_addrs)
        l1_trace = L1ServiceTrace(stream, tiny_arch)
        memory = _fixed_memory(tiny_arch)
        memory.install_l1_trace(l1_trace, stream)
        assert memory.llc_trace.geometry == GEOMETRY
        assert memory.llc_trace._l1 is l1_trace
        resizable = PartitionedLLC(tiny_arch.llc_lines, 4, tiny_arch.num_cores, 16)
        memory = DomainMemory(tiny_arch, resizable.view(0))
        memory.install_l1_trace(l1_trace, stream)
        assert memory.llc_trace is None

    def test_resolve_and_commit_match_scalar_accesses(self, tiny_arch, stream_addrs):
        stream = InstructionStream(stream_addrs)
        traced = _fixed_memory(tiny_arch)
        traced.install_l1_trace(L1ServiceTrace(stream, tiny_arch), stream)
        scalar = _fixed_memory(tiny_arch)
        period = stream_addrs.shape[0]

        pos = 0
        for n, count in [(50, 50), (64, 23), (64, 0), (300, 300), (90, 41),
                         (70, 70), (200, 13)]:
            levels, latencies = traced.resolve_levels(n)
            traced.commit_levels(levels[:count])
            block = stream_addrs[np.arange(pos, pos + count) % period]
            expected = [scalar.access(int(addr)) for addr in block]
            assert latencies[:count].tolist() == expected
            pos += count
        # Scalar mop-up steps read the trace too.
        for addr in stream_addrs[np.arange(pos, pos + 40) % period]:
            assert traced.access(int(addr)) == scalar.access(int(addr))

        assert traced.level_counts == scalar.level_counts
        assert traced.l1.stats.hits == scalar.l1.stats.hits
        assert traced.l1.stats.misses == scalar.l1.stats.misses
        # Nothing walked the live partition.
        assert traced.llc_view._llc.stats_of(0).accesses == 0

    def test_monitored_memories_are_rejected(self, tiny_arch, stream_addrs):
        stream = InstructionStream(stream_addrs)
        l1_trace = L1ServiceTrace(stream, tiny_arch)

        class Sink:
            def observe(self, line_addr: int) -> None:
                pass

        llc = PartitionedLLC(
            tiny_arch.llc_lines, 4, tiny_arch.num_cores, 16, resizable=False
        )
        monitored = DomainMemory(tiny_arch, llc.view(0), monitor=Sink())
        with pytest.raises(ValueError, match="unmonitored"):
            monitored.install_l1_trace(l1_trace, stream)


def test_static_batched_run_never_walks_or_restores_the_llc(monkeypatch):
    """A Static cell reads its LLC service trace and nothing else."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a fixed partition walked or rolled back its LLC")

    monkeypatch.setattr(DomainMemory, "_llc_access", forbidden)
    monkeypatch.setattr(PartitionView, "access_run", forbidden)
    monkeypatch.setattr(PartitionView, "snapshot", forbidden)
    monkeypatch.setattr(PartitionView, "restore", forbidden)
    monkeypatch.setattr(SetAssociativeCache, "restore", forbidden)
    monkeypatch.setattr(experiment, "_L1_TRACE_MEMO", {})
    pairs = [("gcc_2", "AES-128"), ("imagick_0", "SHA-256")]
    system = experiment.build_mix_system(pairs, "static", TEST)
    experiment.share_l1_traces(
        system, experiment._workload_keys(pairs, TEST)
    )
    # Fresh LLC traces over the memo's shared L1 traces, kept out of it.
    for memory in system.memories:
        assert memory.llc_trace._l1 is memory.l1_trace
    assert not any(
        isinstance(trace, LLCServiceTrace)
        for trace in experiment._L1_TRACE_MEMO.values()
    )
    result = system.run(max_cycles=TEST.max_cycles)
    assert result.completed
    assert all(memory.llc_trace is not None for memory in system.memories)
    assert all(stats.ipc > 0 for stats in result.stats)
