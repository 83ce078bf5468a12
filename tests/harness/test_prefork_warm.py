"""Tests for the prefork precompute warming of forked worker pools.

The supervisor warms pure, shareable state (L1 service traces, untangle
rate tables) in the parent before forking workers; these tests pin the
warming helpers' dedup and routing logic without paying real solves.
"""

from __future__ import annotations

import pytest

import repro.harness.experiment as experiment
from repro.harness.experiment import (
    run_mix_scheme,
    warm_l1_traces,
    warm_rate_tables,
)
from repro.harness.runconfig import TEST
from repro.workloads.mixes import get_mix


class TestWarmRateTables:
    @pytest.fixture()
    def calls(self, monkeypatch):
        calls: list[tuple[str, int]] = []
        monkeypatch.setattr(
            experiment,
            "get_rate_table",
            lambda cooldown, capacity=None: calls.append(
                ("optimized", cooldown)
            ),
        )
        monkeypatch.setattr(
            experiment,
            "get_worst_case_rate_table",
            lambda cooldown: calls.append(("worst_case", cooldown)),
        )
        return calls

    def test_dedups_per_scheme_and_cooldown(self, calls):
        warmed = warm_rate_tables(
            [("untangle", TEST), ("untangle", TEST), ("untangle", TEST)]
        )
        assert warmed == 1
        assert calls == [("optimized", TEST.cooldown)]

    def test_ignores_schemes_without_tables(self, calls):
        warmed = warm_rate_tables(
            [("static", TEST), ("shared", TEST), ("time", TEST)]
        )
        assert warmed == 0
        assert calls == []

    def test_worst_case_routed_separately(self, calls):
        warmed = warm_rate_tables(
            [("untangle", TEST), ("untangle-unopt", TEST)]
        )
        assert warmed == 2
        assert calls == [
            ("optimized", TEST.cooldown),
            ("worst_case", TEST.cooldown),
        ]


class TestWarmL1Traces:
    @pytest.fixture()
    def memo(self):
        experiment._L1_TRACE_MEMO.clear()
        yield experiment._L1_TRACE_MEMO
        experiment._L1_TRACE_MEMO.clear()

    def test_second_warm_is_memoized(self, memo):
        pairs = list(get_mix(1))[:2]
        entries = [(pairs, TEST)]
        assert warm_l1_traces(entries) == 2
        # Every trace is walked to its repeating pass (pass 1 under LRU).
        walked = {key: trace.passes_walked for key, trace in memo.items()}
        assert all(trace.cycle_found for trace in memo.values())
        assert set(walked.values()) == {2}
        # Same entries again: everything already walked, nothing walks.
        assert warm_l1_traces(entries) == 0
        assert {key: t.passes_walked for key, t in memo.items()} == walked

    def test_monitor_traces_follow_the_built_monitors(self, memo):
        pairs = list(get_mix(1))[:2]
        entries = [
            (pairs, TEST, scheme, ())
            for scheme in ("static", "time", "untangle")
        ]
        # Two L1 traces, plus one monitor trace per stream for each of
        # the two monitored schemes; static builds no monitor.
        assert warm_l1_traces(entries) == 6
        feeds = sorted(key[-1] for key in memo if len(key) > 3)
        # Time monitors live-L1 misses; Untangle filters public accesses.
        assert feeds == [False, False, True, True]
        for trace in memo.values():
            assert trace.cycle_found and trace.passes_walked <= 3
        walked = {key: trace.passes_walked for key, trace in memo.items()}
        # Cells on warmed traces walk nothing further.
        for scheme in ("time", "untangle"):
            run_mix_scheme(pairs, scheme, TEST)
        assert {key: t.passes_walked for key, t in memo.items()} == walked
