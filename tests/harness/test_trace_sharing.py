"""Shared L1 service traces: mix cells reuse one walk per stream.

``run_mix_scheme`` swaps every batched core's private trace for the
process memo's shared one (:func:`repro.harness.experiment.share_l1_traces`),
so a cell may start from a trace another scheme's cell already walked
far past where this cell will stop. Results must be bit-identical to a
run on private traces, rollbacks included.
"""

from __future__ import annotations

import pytest

from repro.harness import experiment
from repro.harness.experiment import (
    SCHEME_NAMES,
    build_mix_system,
    run_mix_scheme,
    warm_l1_traces,
)
from repro.harness.runconfig import TEST
from repro.sim.hierarchy import DomainMemory, MonitorTrace

PAIRS = [("gcc_2", "AES-128"), ("imagick_0", "SHA-256")]


def _observables(total_cycles, rows):
    return total_cycles, [
        (w.ipc, w.assessments, w.visible_actions, w.leakage_bits,
         w.partition_quartiles)
        for w in rows
    ]


def _private_run(scheme: str):
    """The cell on each core's own private trace (no memo)."""
    system = build_mix_system(list(PAIRS), scheme, TEST)
    outcome = system.run(max_cycles=TEST.max_cycles)
    rows = [
        experiment.WorkloadResult(
            label=spec.name,
            ipc=stats.ipc,
            assessments=stats.assessments,
            visible_actions=stats.visible_actions,
            leakage_bits=stats.leakage_bits,
            partition_quartiles=stats.partition_size_quartiles(),
        )
        for spec, stats in zip(system.domains, outcome.stats)
    ]
    return _observables(outcome.total_cycles, rows)


@pytest.fixture()
def empty_memo():
    experiment._L1_TRACE_MEMO.clear()
    yield experiment._L1_TRACE_MEMO
    experiment._L1_TRACE_MEMO.clear()


class TestSharedTraces:
    def test_every_scheme_bit_identical(self, empty_memo):
        """Every scheme in turn on one memo: later schemes start from
        traces the earlier ones already walked, and each result equals
        its private-trace run."""
        for scheme in SCHEME_NAMES:
            shared = run_mix_scheme(list(PAIRS), scheme, TEST)
            assert _observables(
                shared.total_cycles, shared.workloads
            ) == _private_run(scheme), scheme
        # One L1 trace per stream, shared by every scheme, and one
        # monitor trace per stream for each distinct monitor encoding.
        l1_keys = [key for key in empty_memo if len(key) == 3]
        assert len(l1_keys) == len(PAIRS)
        specs: dict[tuple, int] = {}
        for key in empty_memo:
            if len(key) > 3:
                specs[key[3:]] = specs.get(key[3:], 0) + 1
        assert specs and set(specs.values()) == {len(PAIRS)}

    def test_memoized_traces_hold_a_byte_per_walked_position(self, empty_memo):
        """Once its cycle is found a shared trace keeps only its outputs:
        one bit (L1) or one byte (monitor) per walked position."""
        for scheme in ("time", "untangle"):
            run_mix_scheme(list(PAIRS), scheme, TEST)
        warm_l1_traces([(list(PAIRS), TEST, "time", ()),
                        (list(PAIRS), TEST, "untangle", ())])
        assert any(isinstance(t, MonitorTrace) for t in empty_memo.values())
        for trace in empty_memo.values():
            assert trace.cycle_found
            positions = trace.passes_walked * trace._period
            held = sum(len(walked) for walked in trace._passes)
            assert held <= positions
            # The walk state (replica caches, tracker, address copies)
            # is gone.
            walk_state = [
                getattr(trace, slot)
                for slot in type(trace).__slots__
                if slot not in ("geometry", "spec")
            ]
            assert all(value is None for value in walk_state)

    def test_walked_ahead_tails_really_settle(self, empty_memo, monkeypatch):
        """The equivalence above must cover rollbacks, not dodge them:
        time and untangle cells walk their partitions ahead on shared
        traces and really settle walked-ahead tails back."""
        settled: dict[str, int] = {}
        settle = DomainMemory.settle

        def counting_settle(self, *args, **kwargs):
            before = self.llc_settles
            settle(self, *args, **kwargs)
            if self.llc_settles > before:
                settled[scheme] = settled.get(scheme, 0) + 1

        monkeypatch.setattr(DomainMemory, "settle", counting_settle)
        for scheme in ("time", "untangle"):
            run_mix_scheme(list(PAIRS), scheme, TEST)
        assert settled.get("time") and settled.get("untangle"), settled

    def test_memo_cap_enforced_at_insert(self, empty_memo, monkeypatch):
        monkeypatch.setattr(experiment, "_L1_TRACE_MEMO_CAP", 1)
        run_mix_scheme(list(PAIRS), "static", TEST)
        assert len(empty_memo) == 1
        # Warming stops at the cap instead of evicting what it warmed.
        empty_memo.clear()
        assert warm_l1_traces([(list(PAIRS), TEST)]) == 1
        assert len(empty_memo) == 1
