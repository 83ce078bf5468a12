"""Differential tests: the batched kernel against the reference kernel.

The compiled-walk :class:`~repro.sim.cache.SetAssociativeCache` and the
batched hierarchy path (traced :meth:`~repro.sim.hierarchy.DomainMemory.
resolve_levels` / :meth:`~repro.sim.hierarchy.DomainMemory.commit_levels`
/ :meth:`~repro.sim.hierarchy.DomainMemory.settle`) claim *bit-identical*
behavior to the retained list-based reference kernel. The cache tests
drive both implementations through randomized operation sequences —
accesses and access runs interleaved with ``resize_sets``,
``invalidate``, ``probe`` and snapshot/restore round-trips, over
int32 and int64 addresses — and compare every observable after every
step: hit/miss results, hit/miss/eviction/invalidation counters,
resident counts, and the full resident set in recency order. The hierarchy tests compare
traced resolves against scalar ``access()`` calls on a reference-kernel
``DomainMemory`` with no trace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotations import AnnotationVector
from repro.sim.cache import ReferenceSetAssociativeCache, SetAssociativeCache
from repro.sim.cpu import InstructionStream
from repro.sim.hierarchy import (
    DomainMemory,
    L1ServiceTrace,
    MemoryLevel,
    MonitorTrace,
)
from repro.sim.kernelmode import KERNEL_ENV
from repro.sim.partition import PartitionedLLC, SharedLLC


# ----------------------------------------------------------------------
# Cache-level differential property test
# ----------------------------------------------------------------------
_ADDR = st.integers(min_value=0, max_value=48)

_OPS = st.one_of(
    st.tuples(st.just("access"), _ADDR),
    st.tuples(st.just("access_run"), st.lists(_ADDR, min_size=1, max_size=24)),
    st.tuples(st.just("probe"), _ADDR, st.booleans()),
    st.tuples(st.just("invalidate"), _ADDR),
    st.tuples(st.just("invalidate_all")),
    st.tuples(st.just("resize_sets"), st.integers(min_value=1, max_value=9)),
    st.tuples(
        st.just("speculate"),
        st.lists(_ADDR, min_size=1, max_size=16),
        st.booleans(),  # restore (discard) or keep the speculative run
    ),
)


def _state(cache) -> tuple:
    """Every observable of a cache, for exact comparison."""
    stats = cache.stats
    return (
        cache.num_sets,
        cache.resident_lines,
        cache.resident_addresses(),
        (stats.hits, stats.misses, stats.evictions, stats.invalidations),
    )


def _apply(cache, op) -> object:
    """Run one operation; returns its comparable result."""
    if op[0] == "access":
        return cache.access(op[1])
    if op[0] == "access_run":
        hits, evictions = cache.access_run(np.array(op[1], dtype=np.int64))
        return (hits.tolist(), evictions)
    if op[0] == "probe":
        return cache.probe(op[1], touch=op[2])
    if op[0] == "invalidate":
        return cache.invalidate(op[1])
    if op[0] == "invalidate_all":
        return cache.invalidate_all()
    if op[0] == "resize_sets":
        return cache.resize_sets(op[1])
    assert op[0] == "speculate"
    addrs = np.array(op[1], dtype=np.int64)
    snapshot = cache.snapshot()
    hits, evictions = cache.access_run(addrs)
    if op[2]:
        cache.restore(snapshot)
    return (hits.tolist(), evictions, op[2])


class TestCacheDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        num_sets=st.integers(min_value=1, max_value=7),
        associativity=st.integers(min_value=1, max_value=4),
        ops=st.lists(_OPS, min_size=1, max_size=40),
    )
    def test_packed_recency_matches_reference(self, num_sets, associativity, ops):
        fast = SetAssociativeCache(num_sets, associativity)
        reference = ReferenceSetAssociativeCache(num_sets, associativity)
        for op in ops:
            assert _apply(fast, op) == _apply(reference, op), op
            assert _state(fast) == _state(reference), op

    def test_snapshot_restore_is_exact_after_eviction_pressure(self):
        fast = SetAssociativeCache(2, 2)
        reference = ReferenceSetAssociativeCache(2, 2)
        warm = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
        run = np.array([6, 8, 10, 0, 6], dtype=np.int64)
        for cache in (fast, reference):
            cache.access_run(warm)
            before = _state(cache)
            snapshot = cache.snapshot()
            cache.access_run(run)
            assert _state(cache) != before  # the run really changed state
            cache.restore(snapshot)
            assert _state(cache) == before
        assert _state(fast) == _state(reference)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("ways", [1, 8, 16])
    @pytest.mark.parametrize("num_sets", [1, 8, 24, 48, 64])
    def test_random_sequences_match_reference(self, num_sets, ways, dtype):
        """Runs, scalar accesses, probes, invalidations, resizes and
        snapshot/restore round-trips at the simulated geometries.

        int64 addresses start above 2**31, as Shared-tagged lines do.
        """
        rng = np.random.default_rng(num_sets * 1000 + ways * 10 + len(str(dtype)))
        base = 0 if dtype is np.int32 else 2**31 + 7 * SharedLLC._DOMAIN_STRIDE
        fast = SetAssociativeCache(num_sets, ways)
        reference = ReferenceSetAssociativeCache(num_sets, ways)
        snapshots: list[tuple] = []

        def lines(count: int) -> np.ndarray:
            span = 3 * fast.num_sets * ways
            return (base + rng.integers(0, span, count)).astype(dtype)

        for _ in range(120):
            op = int(rng.integers(0, 8))
            if op <= 1:
                addrs = lines(int(rng.integers(1, 300)))
                fast_hits, fast_ev = fast.access_run(addrs)
                ref_hits, ref_ev = reference.access_run(addrs)
                assert fast_hits.tolist() == ref_hits.tolist()
                assert fast_ev == ref_ev
            elif op == 2:
                line = int(lines(1)[0])
                assert fast.access(line) == reference.access(line)
            elif op == 3:
                line = int(lines(1)[0])
                touch = bool(rng.integers(0, 2))
                assert fast.probe(line, touch=touch) == reference.probe(
                    line, touch=touch
                )
            elif op == 4:
                line = int(lines(1)[0])
                assert fast.invalidate(line) == reference.invalidate(line)
            elif op == 5:
                new_sets = int(rng.choice([1, 8, 24, 48, 64]))
                assert fast.resize_sets(new_sets) == reference.resize_sets(new_sets)
            elif op == 6:
                snapshots.append((fast.snapshot(), reference.snapshot()))
            elif snapshots:
                fast_snap, ref_snap = snapshots[int(rng.integers(0, len(snapshots)))]
                fast.restore(fast_snap)
                reference.restore(ref_snap)
            assert _state(fast) == _state(reference), op

    def test_state_is_equal_exactly_when_lru_orders_are(self):
        """``state()`` compares as the reference's per-set LRU order does."""
        rng = np.random.default_rng(7)
        equal_pairs = 0
        for _ in range(400):
            caches = []
            for _ in range(2):
                fast = SetAssociativeCache(2, 2)
                reference = ReferenceSetAssociativeCache(2, 2)
                addrs = rng.integers(0, 5, int(rng.integers(0, 6)))
                fast.access_run(addrs)
                reference.access_run(addrs)
                if rng.integers(0, 2):
                    line = int(rng.integers(0, 5))
                    fast.invalidate(line)
                    reference.invalidate(line)
                caches.append((fast, reference))
            (fast_a, ref_a), (fast_b, ref_b) = caches
            same = ref_a.state() == ref_b.state()
            assert (fast_a.state() == fast_b.state()) == same
            equal_pairs += same
        assert equal_pairs > 10  # both outcomes were exercised


# ----------------------------------------------------------------------
# Hierarchy-level differential: resolve/commit vs the scalar loop
# ----------------------------------------------------------------------
class RecordingMonitor:
    def __init__(self):
        self.observed: list[int] = []

    def observe(self, line_addr: int) -> None:
        self.observed.append(line_addr)


def _build_memory(
    tiny_arch, organization: str, monkeypatch, mode: str, stream=None,
    excluded=None,
):
    """One DomainMemory over a fresh LLC, built under the given kernel.

    With ``stream`` (an address array, optionally with per-access secret
    flags ``excluded``) the memory reads its L1 decisions and monitor
    feed from traces over that stream, as a batched core's does.
    """
    monkeypatch.setenv(KERNEL_ENV, mode)
    if organization == "partitioned":
        llc = PartitionedLLC(
            tiny_arch.llc_lines,
            tiny_arch.llc_associativity,
            tiny_arch.num_cores,
            tiny_arch.default_partition_lines,
        )
    else:
        llc = SharedLLC(
            tiny_arch.llc_lines, tiny_arch.llc_associativity, tiny_arch.num_cores
        )
    monitor = RecordingMonitor()
    memory = DomainMemory(tiny_arch, llc.view(0), monitor=monitor)
    if stream is not None:
        if excluded is None:
            excluded = np.zeros(stream.shape[0], dtype=bool)
        annotated = InstructionStream(
            stream, AnnotationVector(excluded, np.zeros_like(excluded))
        )
        l1_trace = L1ServiceTrace(annotated, tiny_arch)
        memory.install_l1_trace(l1_trace, annotated)
        memory.install_monitor_trace(
            MonitorTrace(
                annotated, tiny_arch, *memory.monitor_trace_spec,
                l1_trace=l1_trace,
            )
        )
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    return memory, llc, monitor


def _access_block(memory: DomainMemory, addrs: np.ndarray) -> np.ndarray:
    """Resolve and commit a whole run."""
    levels, latencies = memory.resolve_levels(int(addrs.shape[0]), addrs)
    memory.commit_levels(levels)
    return latencies


def _memory_state(memory, llc) -> tuple:
    """Every hierarchy observable except the live L1's contents.

    A traced memory never walks its live L1 (the trace stands in for
    it), so the L1 is compared through its served hit/miss counters.
    """
    l1 = memory.l1.stats
    return (
        dict(memory.level_counts),
        (l1.hits, l1.misses),
        _state(llc.cache_of(0) if isinstance(llc, PartitionedLLC) else llc._cache),
        (llc.stats_of(0).hits, llc.stats_of(0).misses),
    )


@pytest.mark.parametrize("organization", ["partitioned", "shared"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partial_commit_matches_scalar_prefix(
    tiny_arch, monkeypatch, organization, seed
):
    """resolve_levels + commits of k accesses + settle == k scalar accesses.

    Random runs with random commit prefixes (including 0 and full),
    committed in one or two slices, with secret annotations, interleaved
    with partition resizes (which settle the walk themselves) — the
    batched CPU kernel's whole contract against the hierarchy, checked
    directly. Each run continues the trace's stream where the last
    commit stopped.
    """
    rng = np.random.default_rng(seed)
    stream = rng.integers(0, 200, size=300).astype(np.int64)
    secret = rng.random(300) < 0.3
    batched, batched_llc, batched_monitor = _build_memory(
        tiny_arch, organization, monkeypatch, "batched", stream, secret
    )
    scalar, scalar_llc, scalar_monitor = _build_memory(
        tiny_arch, organization, monkeypatch, "reference"
    )
    sizes = sorted(
        lines
        for lines in range(
            tiny_arch.llc_associativity,
            tiny_arch.default_partition_lines + 1,
            tiny_arch.llc_associativity,
        )
    )
    pos = 0
    for step in range(30):
        n = int(rng.integers(1, 40))
        window = np.arange(pos, pos + n) % stream.shape[0]
        addrs = stream[window]
        excluded = secret[window]
        k = int(rng.integers(0, n + 1))

        levels, latencies = batched.resolve_levels(n, addrs)
        assert latencies.shape == (n,)
        split = int(rng.integers(0, k + 1))
        batched.commit_levels(levels[:split])
        batched.commit_levels(levels[split:k])
        resize = organization == "partitioned" and step % 7 == 3
        if not resize:
            batched.settle()
        pos += k

        scalar_latencies = [
            scalar.access(int(addrs[i]), bool(excluded[i])) for i in range(k)
        ]
        assert latencies[:k].tolist() == scalar_latencies
        assert batched_monitor.observed == scalar_monitor.observed

        if resize:
            # A real resize: it must settle the walk before re-hashing.
            new_lines = int(
                rng.choice([x for x in sizes if x != batched_llc.size_of(0)])
            )
            outcome_b = batched_llc.resize(0, new_lines)
            outcome_s = scalar_llc.resize(0, new_lines)
            assert outcome_b == outcome_s
        assert _memory_state(batched, batched_llc) == _memory_state(
            scalar, scalar_llc
        )


def test_access_block_matches_scalar_loop(tiny_arch, monkeypatch):
    """A whole run resolved and committed at once, annotations included."""
    rng = np.random.default_rng(7)
    addrs = rng.integers(0, 150, size=500).astype(np.int64)
    excluded = rng.random(500) < 0.25
    batched, batched_llc, batched_monitor = _build_memory(
        tiny_arch, "partitioned", monkeypatch, "batched", addrs, excluded
    )
    scalar, scalar_llc, scalar_monitor = _build_memory(
        tiny_arch, "partitioned", monkeypatch, "reference"
    )
    latencies = _access_block(batched, addrs)
    scalar_latencies = [
        scalar.access(int(a), bool(x)) for a, x in zip(addrs, excluded)
    ]
    assert latencies.tolist() == scalar_latencies
    assert _memory_state(batched, batched_llc) == _memory_state(scalar, scalar_llc)
    assert batched_monitor.observed == scalar_monitor.observed
    assert batched.level_counts[MemoryLevel.DRAM] > 0  # the trace really missed


def test_commit_zero_leaves_no_trace(tiny_arch, monkeypatch):
    """A fully rolled-back walk is invisible (the mop-up boundary case)."""
    stream = np.concatenate(
        [np.arange(0, 32), [100, 101, 0]]
    ).astype(np.int64)
    batched, batched_llc, _ = _build_memory(
        tiny_arch, "partitioned", monkeypatch, "batched", stream
    )
    _access_block(batched, stream[:32])
    before = _memory_state(batched, batched_llc)
    epoch = batched.epoch
    batched.resolve_levels(3, stream[32:])
    assert _memory_state(batched, batched_llc) != before  # walked ahead
    batched.settle()
    assert _memory_state(batched, batched_llc) == before
    assert (batched.epoch, batched.llc_settles) == (epoch + 1, 1)
