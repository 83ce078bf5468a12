"""Tests for the prefork precompute warming of forked worker pools.

The supervisor warms pure, shareable state (L1 service traces, untangle
rate tables) in the parent before forking workers; these tests pin the
warming helpers' dedup and routing logic without paying real solves.
"""

from __future__ import annotations

import pytest

import repro.harness.experiment as experiment
from repro.harness.experiment import warm_l1_traces, warm_rate_tables
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
    def test_second_warm_is_memoized(self):
        experiment._L1_TRACE_MEMO.clear()
        pairs = list(get_mix(1))[:2]
        entries = [(pairs, TEST)]
        assert warm_l1_traces(entries) == 2
        # Same entries again: everything already memoized.
        assert warm_l1_traces(entries) == 0
        # Every trace is warmed past one full stream pass.
        for trace in experiment._L1_TRACE_MEMO.values():
            assert trace._walked >= trace._period
        experiment._L1_TRACE_MEMO.clear()
