"""Tests for the set-associative cache, including an LRU reference model."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.cache import ReferenceSetAssociativeCache, SetAssociativeCache
from repro.sim.kernelmode import make_cache
from repro.sim.replacement import FIFOPolicy, LRUPolicy


class ReferenceLRUCache:
    """An obviously-correct set-associative LRU model (OrderedDict per set)."""

    def __init__(self, num_sets, associativity):
        self.num_sets = num_sets
        self.associativity = associativity
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, addr):
        ways = self.sets[addr % self.num_sets]
        if addr in ways:
            ways.move_to_end(addr)
            return True
        if len(ways) >= self.associativity:
            ways.popitem(last=False)
        ways[addr] = None
        return False


class TestBasics:
    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(0, 4)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(4, 0)

    def test_miss_then_hit(self):
        cache = SetAssociativeCache(2, 2)
        assert not cache.access(10)
        assert cache.access(10)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_and_residency(self):
        cache = SetAssociativeCache(2, 2)
        for addr in range(4):
            cache.access(addr)
        assert cache.capacity_lines == 4
        assert cache.resident_lines == 4

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(1, 2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # 2 is now LRU
        cache.access(3)  # evicts 2
        assert cache.contains(1)
        assert not cache.contains(2)
        assert cache.contains(3)

    def test_set_isolation(self):
        cache = SetAssociativeCache(2, 1)
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        assert cache.contains(0) and cache.contains(1)
        cache.access(2)  # set 0, evicts 0
        assert not cache.contains(0)
        assert cache.contains(1)

    @pytest.mark.parametrize(
        "cache_class", [SetAssociativeCache, ReferenceSetAssociativeCache]
    )
    def test_probe_does_not_allocate(self, cache_class):
        cache = cache_class(1, 2)
        assert not cache.probe(7)
        assert not cache.contains(7)

    @pytest.mark.parametrize(
        "cache_class", [SetAssociativeCache, ReferenceSetAssociativeCache]
    )
    def test_probe_is_read_only_by_default(self, cache_class):
        """A plain probe must not perturb recency (the documented contract).

        The original model refreshed LRU on a probe hit, silently turning
        an "inspection" into a replacement-state update; this pins the
        fixed read-only behavior for both implementations.
        """
        cache = cache_class(1, 2)
        cache.access(1)
        cache.access(2)
        assert cache.probe(1)  # read-only: 1 stays LRU
        cache.access(3)  # evicts 1
        assert not cache.contains(1)
        assert cache.contains(2)
        assert cache.contains(3)
        # Probes never touch the hit/miss counters either.
        assert cache.stats.accesses == 3

    @pytest.mark.parametrize(
        "cache_class", [SetAssociativeCache, ReferenceSetAssociativeCache]
    )
    def test_probe_touch_refreshes_lru(self, cache_class):
        cache = cache_class(1, 2)
        cache.access(1)
        cache.access(2)
        assert cache.probe(1, touch=True)  # 1 becomes MRU
        cache.access(3)  # evicts 2
        assert cache.contains(1)
        assert not cache.contains(2)

    def test_invalidate(self):
        cache = SetAssociativeCache(1, 2)
        cache.access(5)
        assert cache.invalidate(5)
        assert not cache.contains(5)
        assert not cache.invalidate(5)

    def test_invalidate_all(self):
        cache = SetAssociativeCache(2, 2)
        for addr in range(4):
            cache.access(addr)
        dropped = cache.invalidate_all()
        assert dropped == 4
        assert cache.resident_lines == 0

    def test_stats_reset(self):
        cache = SetAssociativeCache(1, 1)
        cache.access(1)
        cache.stats.reset()
        assert cache.stats.accesses == 0

    def test_hit_rate(self):
        cache = SetAssociativeCache(1, 4)
        cache.access(1)
        cache.access(1)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert SetAssociativeCache(1, 1).stats.hit_rate == 0.0


class TestResize:
    def test_resize_same_size_noop(self):
        cache = SetAssociativeCache(4, 2)
        cache.access(1)
        assert cache.resize_sets(4) == 0
        assert cache.contains(1)

    def test_grow_preserves_lines_that_remap(self):
        cache = SetAssociativeCache(1, 4)
        for addr in range(4):
            cache.access(addr)
        lost = cache.resize_sets(2)
        assert lost == 0
        assert cache.resident_lines == 4
        for addr in range(4):
            assert cache.contains(addr)

    def test_shrink_drops_overflow(self):
        cache = SetAssociativeCache(4, 2)
        for addr in range(8):
            cache.access(addr)
        lost = cache.resize_sets(1)
        assert lost == 6  # one 2-way set holds only 2 lines
        assert cache.resident_lines == 2

    def test_resize_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(2, 2).resize_sets(0)

    def test_resize_preserves_recency_preference(self):
        """Most-recently-used lines survive a shrink."""
        cache = SetAssociativeCache(2, 2)
        for addr in [0, 2, 4, 6]:  # all even -> set 0 under 2 sets? no: 0,2,4,6 % 2 = 0
            cache.access(addr)
        # Set 0 holds [4, 6] (0, 2 evicted). Now shrink to 1 set.
        cache.resize_sets(1)
        assert cache.contains(4) or cache.contains(6)


class TestGenericPolicies:
    def test_explicit_lru_matches_fast_path(self):
        fast = SetAssociativeCache(2, 2)
        slow = ReferenceSetAssociativeCache(2, 2, policy=LRUPolicy())
        pattern = [1, 2, 3, 1, 4, 2, 5, 1, 3]
        assert [fast.access(a) for a in pattern] == [
            slow.access(a) for a in pattern
        ]

    def test_fifo_differs_from_lru_on_reorder(self):
        """FIFO evicts first-inserted even if recently hit."""
        fifo = make_cache(1, 2, policy=FIFOPolicy())
        assert isinstance(fifo, ReferenceSetAssociativeCache)
        fifo.access(1)
        fifo.access(2)
        fifo.access(1)  # hit, but does not refresh FIFO order
        fifo.access(3)  # evicts 1 (first in)
        assert not fifo.contains(1)
        assert fifo.contains(2)


class TestAccessRun:
    @pytest.mark.parametrize(
        "cache_class", [SetAssociativeCache, ReferenceSetAssociativeCache]
    )
    def test_run_matches_scalar_accesses(self, cache_class):
        addrs = np.array([1, 2, 3, 1, 4, 2, 5, 1, 3, 3], dtype=np.int64)
        batched = cache_class(2, 2)
        scalar = cache_class(2, 2)
        hits, evictions = batched.access_run(addrs)
        expected = [scalar.access(int(a)) for a in addrs]
        assert hits.tolist() == expected
        assert evictions == scalar.stats.evictions
        assert batched.stats == scalar.stats
        assert batched.resident_addresses() == scalar.resident_addresses()

    def test_run_returns_eviction_count(self):
        cache = SetAssociativeCache(1, 2)
        hits, evictions = cache.access_run(np.array([1, 2, 3, 4], dtype=np.int64))
        assert hits.tolist() == [False] * 4
        assert evictions == 2
        assert cache.stats.evictions == 2

    def test_run_with_generic_policy(self):
        fifo = make_cache(1, 2, policy=FIFOPolicy())
        hits, evictions = fifo.access_run(np.array([1, 2, 1, 3], dtype=np.int64))
        assert hits.tolist() == [False, False, True, False]
        assert evictions == 1
        assert not fifo.contains(1)  # FIFO evicts first-in despite the hit


class TestResidentCounter:
    """The incremental resident-lines counter (satellite perf fix)."""

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["access", "invalidate", "resize", "flush"]),
                      st.integers(0, 30)),
            min_size=1,
            max_size=200,
        )
    )
    def test_counter_matches_recount_after_random_ops(self, ops):
        cache = SetAssociativeCache(4, 2)
        for op, value in ops:
            if op == "access":
                cache.access(value)
            elif op == "invalidate":
                cache.invalidate(value)
            elif op == "resize":
                cache.resize_sets(value % 6 + 1)
            else:
                cache.invalidate_all()
            assert cache.resident_lines == len(cache.resident_addresses())


@settings(max_examples=30, deadline=None)
@given(
    num_sets=st.sampled_from([1, 2, 4]),
    associativity=st.sampled_from([1, 2, 4]),
    addresses=st.lists(st.integers(0, 40), min_size=1, max_size=300),
)
def test_lru_matches_reference_model(num_sets, associativity, addresses):
    cache = SetAssociativeCache(num_sets, associativity)
    reference = ReferenceLRUCache(num_sets, associativity)
    for addr in addresses:
        assert cache.access(addr) == reference.access(addr)


@settings(max_examples=20, deadline=None)
@given(addresses=st.lists(st.integers(0, 30), min_size=1, max_size=200))
def test_bigger_cache_never_fewer_hits_fully_associative(addresses):
    """LRU stack inclusion: hits(capacity) is monotone for FA caches."""
    small = SetAssociativeCache(1, 4)
    big = SetAssociativeCache(1, 8)
    for addr in addresses:
        small.access(addr)
        big.access(addr)
    assert big.stats.hits >= small.stats.hits
