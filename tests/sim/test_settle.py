"""Walking a private LLC partition ahead, and settling the walk back.

A batched memory over a resizable private partition resolves runs ahead
of what it has committed (:meth:`~repro.sim.hierarchy.DomainMemory.
resolve_levels`), and :meth:`~repro.sim.hierarchy.DomainMemory.settle`
rolls the uncommitted tail back. These tests pin the guards that keep
that exact: one settle owner per partition, a real resize settles first
(timed in exactly one phase), and a scalar access or a new resolve
settles an outstanding walk before touching the LLC. Each case compares
against an untraced reference-kernel twin that only ever performs the
committed accesses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.cpu import InstructionStream
from repro.sim.hierarchy import DomainMemory, L1ServiceTrace
from repro.sim.kernelmode import KERNEL_ENV
from repro.sim.partition import PartitionedLLC
from repro.sim.stats import KernelPhases


@pytest.fixture()
def stream_addrs() -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.integers(0, 160, size=300, dtype=np.int64)


def _llc(arch) -> PartitionedLLC:
    return PartitionedLLC(
        arch.llc_lines,
        arch.llc_associativity,
        arch.num_cores,
        arch.default_partition_lines,
    )


def _pair(arch, stream_addrs, monkeypatch):
    """A traced batched memory and its untraced reference twin."""
    monkeypatch.setenv(KERNEL_ENV, "batched")
    llc = _llc(arch)
    memory = DomainMemory(arch, llc.view(0))
    stream = InstructionStream(stream_addrs)
    memory.install_l1_trace(L1ServiceTrace(stream, arch), stream)
    monkeypatch.setenv(KERNEL_ENV, "reference")
    twin_llc = _llc(arch)
    twin = DomainMemory(arch, twin_llc.view(0))
    monkeypatch.delenv(KERNEL_ENV)
    return (memory, llc), (twin, twin_llc)


def _state(memory, llc) -> tuple:
    cache = llc.cache_of(0)
    stats = cache.stats
    return (
        dict(memory.level_counts),
        (memory.l1.stats.hits, memory.l1.stats.misses),
        cache.num_sets,
        cache.resident_addresses(),
        (stats.hits, stats.misses, stats.evictions),
    )


def _walk_ahead(memory, twin, addrs, n: int, k: int) -> np.ndarray:
    """Resolve ``n`` accesses, commit ``k``; the twin performs those ``k``."""
    levels, latencies = memory.resolve_levels(n, addrs[:n])
    memory.commit_levels(levels[:k])
    assert latencies[:k].tolist() == [twin.access(int(a)) for a in addrs[:k]]
    return levels


def test_a_partition_accepts_one_settle_owner(tiny_arch, stream_addrs):
    llc = _llc(tiny_arch)
    stream = InstructionStream(stream_addrs)
    trace = L1ServiceTrace(stream, tiny_arch)
    owner = DomainMemory(tiny_arch, llc.view(0))
    owner.install_l1_trace(trace, stream)
    owner.install_l1_trace(trace, stream)  # rebinding the owner is a no-op
    with pytest.raises(SimulationError, match="settle owner"):
        DomainMemory(tiny_arch, llc.view(0)).install_l1_trace(trace, stream)
    # Another domain's partition takes its own owner.
    DomainMemory(tiny_arch, llc.view(1)).install_l1_trace(trace, stream)


def test_a_real_resize_settles_first_timed_in_one_phase(
    tiny_arch, stream_addrs, monkeypatch
):
    (memory, llc), (twin, twin_llc) = _pair(tiny_arch, stream_addrs, monkeypatch)
    memory.phases = KernelPhases()
    _walk_ahead(memory, twin, stream_addrs, 200, 60)
    walked = memory.phases.llc_walk_s
    epoch = memory.epoch

    # A no-op resize changes nothing and settles nothing.
    llc.resize(0, llc.size_of(0))
    assert (memory.epoch, memory.llc_settles) == (epoch, 0)

    llc.resize(0, 2 * llc.size_of(0))
    twin_llc.resize(0, 2 * twin_llc.size_of(0))
    assert _state(memory, llc) == _state(twin, twin_llc)
    assert (memory.epoch, memory.llc_settles) == (epoch + 1, 1)
    # The resize runs inside a scheme hook, already timed as scheme
    # time: its settle books no LLC-walk time on top.
    assert memory.phases.llc_walk_s == walked

    # A settle outside a resize is LLC-walk time.
    _walk_ahead(memory, twin, stream_addrs[60:], 100, 30)
    walked = memory.phases.llc_walk_s
    memory.settle()
    assert memory.phases.llc_walk_s > walked
    assert _state(memory, llc) == _state(twin, twin_llc)


def test_a_scalar_access_settles_an_outstanding_walk_first(
    tiny_arch, stream_addrs, monkeypatch
):
    (memory, llc), (twin, twin_llc) = _pair(tiny_arch, stream_addrs, monkeypatch)
    _walk_ahead(memory, twin, stream_addrs, 120, 45)
    for addr in stream_addrs[45:70]:
        assert memory.access(int(addr)) == twin.access(int(addr))
    assert memory.llc_settles == 1
    assert _state(memory, llc) == _state(twin, twin_llc)


def test_a_resolve_settles_an_outstanding_walk_first(
    tiny_arch, stream_addrs, monkeypatch
):
    (memory, llc), (twin, twin_llc) = _pair(tiny_arch, stream_addrs, monkeypatch)
    _walk_ahead(memory, twin, stream_addrs, 150, 20)
    _walk_ahead(memory, twin, stream_addrs[20:], 150, 150)
    assert memory.llc_settles == 1
    memory.settle()  # everything walked was committed: nothing to undo
    assert memory.llc_settles == 1
    assert _state(memory, llc) == _state(twin, twin_llc)


def test_a_tail_of_l1_hits_needs_no_rollback(tiny_arch, monkeypatch):
    # Four lines fit the L1: after the first pass every access hits.
    addrs = np.tile(np.arange(4, dtype=np.int64), 40)
    (memory, llc), (twin, twin_llc) = _pair(tiny_arch, addrs, monkeypatch)
    levels = _walk_ahead(memory, twin, addrs, 100, 10)
    assert not (levels[10:] != 1).any()
    llc.resize(0, 2 * llc.size_of(0))
    twin_llc.resize(0, 2 * twin_llc.size_of(0))
    assert (memory.epoch, memory.llc_settles) == (0, 0)
    # The walked levels still hold: commit the rest of them.
    memory.commit_levels(levels[10:])
    for addr in addrs[10:100]:
        twin.access(int(addr))
    assert _state(memory, llc) == _state(twin, twin_llc)
