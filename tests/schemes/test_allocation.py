"""Tests for the lookahead hit-maximizing allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.schemes.allocation import AllocationResult, GreedyHitMaximizer

SIZES = [4, 8, 16, 32, 64]


def make(total=128, hysteresis=0.0):
    return GreedyHitMaximizer(SIZES, total, hysteresis)


class TestValidation:
    def test_sizes_must_be_ascending(self):
        with pytest.raises(ConfigurationError):
            GreedyHitMaximizer([8, 4], 128)

    def test_total_must_fit_smallest(self):
        with pytest.raises(ConfigurationError):
            GreedyHitMaximizer(SIZES, 2)

    def test_negative_hysteresis(self):
        with pytest.raises(ConfigurationError):
            GreedyHitMaximizer(SIZES, 128, -0.1)

    def test_curve_length_checked(self):
        allocator = make()
        with pytest.raises(ConfigurationError):
            allocator.allocate({0: np.zeros(3)})

    def test_too_many_domains(self):
        allocator = GreedyHitMaximizer(SIZES, 8)
        with pytest.raises(ConfigurationError):
            allocator.allocate({0: np.zeros(5), 1: np.zeros(5), 2: np.zeros(5)})


class TestAllocation:
    def test_everyone_gets_minimum(self):
        allocator = make()
        result = allocator.allocate({0: np.zeros(5), 1: np.zeros(5)})
        assert result.target_sizes == {0: 4, 1: 4}

    def test_single_demanding_domain_gets_capacity(self):
        allocator = make()
        curve = np.array([0, 0, 0, 0, 1000.0])
        result = allocator.allocate({0: curve, 1: np.zeros(5)})
        assert result.target_sizes[0] == 64
        assert result.target_sizes[1] == 4

    def test_lookahead_crosses_flat_regions(self):
        """Step-shaped curves (scans) need multi-level jumps."""
        allocator = make()
        step = np.array([0.0, 0.0, 0.0, 500.0, 500.0])  # all gain at 32
        result = allocator.allocate({0: step})
        assert result.target_sizes[0] == 32  # not 64: no gain past 32

    def test_higher_utility_domain_wins_contention(self):
        allocator = GreedyHitMaximizer(SIZES, 40)  # room for one 32 + one 4
        strong = np.array([0, 0, 0, 900.0, 900.0])
        weak = np.array([0, 0, 0, 300.0, 300.0])
        result = allocator.allocate({0: strong, 1: weak})
        assert result.target_sizes[0] == 32
        assert result.target_sizes[1] == 4

    def test_capacity_never_exceeded(self):
        allocator = make(total=64)
        curves = {
            d: np.array([0, 10, 20, 30, 40.0]) * (d + 1) for d in range(4)
        }
        result = allocator.allocate(curves)
        assert sum(result.target_sizes.values()) <= 64
        assert result.total_allocated <= 64

    def test_hysteresis_suppresses_marginal_upgrades(self):
        eager = make(hysteresis=0.0)
        lazy = make(hysteresis=10.0)
        curve = np.array([0.0, 1.0, 2.0, 3.0, 4.0])  # utility < 1 everywhere
        assert eager.allocate({0: curve}).target_sizes[0] == 64
        assert lazy.allocate({0: curve}).target_sizes[0] == 4

    def test_total_hits_estimate(self):
        allocator = make()
        curve = np.array([5.0, 5.0, 5.0, 5.0, 5.0])
        result = allocator.allocate({0: curve})
        assert result.total_hits_estimate == pytest.approx(5.0)

    def test_greedy_matches_bruteforce_on_small_cases(self):
        """Exhaustive check: greedy lookahead finds the optimal total."""
        import itertools

        allocator = GreedyHitMaximizer([4, 8, 16], 24)
        rng = np.random.default_rng(3)
        for _ in range(20):
            curves = {
                d: np.sort(rng.integers(0, 50, size=3)).astype(float)
                for d in range(2)
            }
            result = allocator.allocate(curves)
            best = -1.0
            for combo in itertools.product([4, 8, 16], repeat=2):
                if sum(combo) > 24:
                    continue
                total = sum(
                    float(curves[d][[4, 8, 16].index(size)])
                    for d, size in enumerate(combo)
                )
                best = max(best, total)
            assert result.total_hits_estimate == pytest.approx(best)


class TestFeasibleSize:
    def test_target_fits(self):
        allocator = make()
        assert allocator.feasible_size(32, 8, 64) == 32

    def test_clamps_to_available(self):
        allocator = make()
        assert allocator.feasible_size(64, 8, 20) == 16

    def test_falls_back_to_current(self):
        allocator = make()
        assert allocator.feasible_size(64, 8, 2) == 8


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), total=st.sampled_from([16, 40, 100, 128]))
def test_allocation_invariants(seed, total):
    allocator = GreedyHitMaximizer(SIZES, total)
    rng = np.random.default_rng(seed)
    domains = rng.integers(1, 1 + total // SIZES[0])
    curves = {
        d: np.sort(rng.integers(0, 100, size=5)).astype(float)
        for d in range(domains)
    }
    result = allocator.allocate(curves)
    assert sum(result.target_sizes.values()) <= total
    assert all(size in SIZES for size in result.target_sizes.values())
    assert result.total_hits_estimate >= sum(c[0] for c in curves.values()) - 1e-9


# ----------------------------------------------------------------------
# The incremental allocator against a full per-round recompute
# ----------------------------------------------------------------------
def _reference_best_jump(sizes, curve, level, budget, calls):
    """Best upgrade from ``level`` under ``budget``; first maximum wins."""
    calls[0] += 1
    base_size = sizes[level]
    base_hits = float(curve[level])
    best = None
    for k in range(level + 1, len(sizes)):
        cost = sizes[k] - base_size
        if cost > budget:
            break
        gain = float(curve[k]) - base_hits
        if gain <= 0:
            continue
        utility = gain / cost
        if best is None or utility > best[0]:
            best = (utility, k, gain)
    return best


def reference_allocate(allocator, hit_curves, calls=None):
    """The allocator's loop recomputing every domain's jump every round."""
    calls = [0] if calls is None else calls
    sizes = allocator.candidate_sizes
    total = allocator.total_lines
    level = {domain: 0 for domain in hit_curves}
    budget = total - len(hit_curves) * sizes[0]
    total_hits = sum(float(curve[0]) for curve in hit_curves.values())
    while True:
        best_domain = None
        best_utility = allocator._hysteresis
        best_level = 0
        best_gain = 0.0
        for domain, curve in hit_curves.items():
            jump = _reference_best_jump(sizes, curve, level[domain], budget, calls)
            if jump is None:
                continue
            utility, new_level, gain = jump
            if utility > best_utility:
                best_domain = domain
                best_utility = utility
                best_level = new_level
                best_gain = gain
        if best_domain is None:
            break
        budget -= sizes[best_level] - sizes[level[best_domain]]
        level[best_domain] = best_level
        total_hits += best_gain
    return AllocationResult(
        target_sizes={domain: sizes[k] for domain, k in level.items()},
        total_allocated=total - budget,
        total_hits_estimate=total_hits,
    )


def _assert_exact(result, expected):
    assert result.target_sizes == expected.target_sizes
    assert list(result.target_sizes) == list(expected.target_sizes)
    assert result.total_allocated == expected.total_allocated
    assert result.total_hits_estimate == expected.total_hits_estimate


@st.composite
def _allocation_cases(draw):
    """Small-integer curves (ties everywhere), monotone or not, and
    budgets from the bare minimum up to room for everyone's largest size."""
    sizes = sorted(draw(st.sets(st.integers(1, 24), min_size=1, max_size=7)))
    domains = draw(st.integers(1, 16))
    curves = {}
    for domain in range(domains):
        steps = draw(st.lists(st.integers(0, 4), min_size=len(sizes),
                              max_size=len(sizes)))
        if draw(st.booleans()):
            steps = np.cumsum(steps).tolist()  # hit curves, with plateaus
        curves[domain] = np.array(steps, dtype=np.float64) * draw(
            st.sampled_from([1.0, 0.5, 3.0])
        )
    slack = draw(st.integers(0, domains * (sizes[-1] - sizes[0])))
    hysteresis = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))
    return sizes, domains * sizes[0] + slack, hysteresis, curves


@settings(max_examples=300, deadline=None)
@given(case=_allocation_cases())
def test_incremental_allocation_equals_full_recompute(case):
    sizes, total, hysteresis, curves = case
    allocator = GreedyHitMaximizer(sizes, total, hysteresis)
    _assert_exact(allocator.allocate(curves), reference_allocate(allocator, curves))


def test_cached_jumps_past_the_budget_are_recomputed():
    """A tight budget invalidates cached jumps the next grant overtakes.

    Domain 0 wins the first round and its grant leaves 4 lines: domain
    1's cached jump (4 -> 32) no longer fits and must fall back to its
    best affordable one (4 -> 8), which a stale cache would skip.
    """
    allocator = GreedyHitMaximizer([4, 8, 32], 48)
    curves = {
        0: np.array([0.0, 0.0, 100.0]),
        1: np.array([0.0, 1.0, 60.0]),
    }
    expected = reference_allocate(allocator, curves)
    assert expected.target_sizes == {0: 32, 1: 8}
    _assert_exact(allocator.allocate(curves), expected)


def test_untangle_cell_calls_best_jump_less_than_half_as_often(monkeypatch):
    """On a Untangle mix-1 cell, same allocations, < 1/2 the jump calls."""
    from repro.harness import experiment
    from repro.harness.experiment import run_mix_scheme
    from repro.harness.runconfig import TEST
    from repro.workloads.mixes import get_mix

    recorded = []
    calls = [0]
    allocate = GreedyHitMaximizer.allocate
    best_jump = GreedyHitMaximizer._best_jump

    def recording_allocate(self, hit_curves):
        result = allocate(self, hit_curves)
        recorded.append((self, {d: c.copy() for d, c in hit_curves.items()}, result))
        return result

    def counting_best_jump(self, curve, level, budget):
        calls[0] += 1
        return best_jump(self, curve, level, budget)

    monkeypatch.setattr(experiment, "_L1_TRACE_MEMO", {})
    monkeypatch.setattr(GreedyHitMaximizer, "allocate", recording_allocate)
    monkeypatch.setattr(GreedyHitMaximizer, "_best_jump", counting_best_jump)
    run_mix_scheme(get_mix(1), "untangle", TEST)
    assert len(recorded) > 50
    reference_calls = [0]
    for allocator, curves, result in recorded:
        _assert_exact(result, reference_allocate(allocator, curves, reference_calls))
    assert 0 < calls[0] < reference_calls[0] / 2
