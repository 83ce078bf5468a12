"""The supervisor's shared cell queue.

Pins the scheduling guarantees:

* **Shared queue** — cells leave one queue longest-expected-first
  (ties in input order), behind any ready retry, one cell per
  dispatch. Every idle worker takes the next cell, which rescues
  campaigns whose cost estimates inverted reality.
* **Dead-at-dispatch accounting** — a worker that dies before receiving
  its cell is booked as exactly one crash (never a timeout), and the
  cell retries through the normal backoff path.
* **Crash accounting** — every attempt is one ``cell.dispatch``, and a
  crashed worker costs only its own cell a retry.
* **Bit identity** — parallel results are byte-for-byte the serial
  results, cache disabled.
"""

from __future__ import annotations

import json
import time
from collections import deque

import pytest

from repro.harness.exec import (
    ExecutionEngine,
    MixSchemeCell,
    _Supervisor,
    cell_key,
    expected_cost,
    runtime_hints_from_entries,
)
from repro.harness.faults import parse_fault_spec
from repro.harness.journal import JournalEntry, RunJournal
from repro.harness.runconfig import TEST
from repro.obs.trace import TRACE_ENV

PAIRS = (("gcc_2", "AES-128"), ("imagick_0", "SHA-256"))


class SleepCell:
    """A busy-wait cell with an (intentionally settable) cost hint."""

    def __init__(self, ident: int, seconds: float, hint: float):
        self.ident = ident
        self.seconds = seconds
        self.hint = hint

    @property
    def label(self) -> str:
        return f"sleep[{self.ident}]"

    def cache_token(self):
        return {"kind": "sleep", "ident": self.ident, "s": self.seconds}

    def cost_hint(self) -> float:
        return self.hint

    def execute(self):
        time.sleep(self.seconds)
        return self.ident

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return {"v": value}

    @staticmethod
    def decode(payload):
        return payload["v"]


def _planner(engine, hints, slots=2):
    """A supervisor stripped to its planning state — no worker spawns."""
    supervisor = _Supervisor.__new__(_Supervisor)
    supervisor.engine = engine
    supervisor.slots = slots
    supervisor.queue = deque()
    supervisor.hints = hints
    return supervisor


def read_events(path, name):
    events = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "event" and record["name"] == name:
            events.append(record)
    return events


class TestCostModel:
    def test_journal_hints_average_computed_walls(self):
        entries = {
            "a": JournalEntry("a", "mix[x]/untangle", "computed", 4.0, 1),
            "b": JournalEntry("b", "mix[y]/untangle", "computed", 2.0, 1),
            # Hits report ~zero wall and must not poison the estimate.
            "c": JournalEntry("c", "mix[z]/untangle", "hit", 0.0, 0),
            "d": JournalEntry("d", "mix[x]/static", "computed", 1.0, 1),
        }
        hints = runtime_hints_from_entries(entries)
        assert hints["untangle"] == pytest.approx(3.0)
        assert hints["static"] == pytest.approx(1.0)

    def test_expected_cost_prefers_history_then_hint_then_family(self):
        untangle = MixSchemeCell(pairs=PAIRS, scheme="untangle", profile=TEST)
        static = MixSchemeCell(pairs=PAIRS, scheme="static", profile=TEST)
        hinted = SleepCell(1, 0.0, hint=7.5)
        history = {"untangle": 12.0}
        assert expected_cost(untangle, history) == pytest.approx(12.0)
        # No history: the static family-weight table orders schemes.
        assert expected_cost(untangle, {}) > expected_cost(static, {})
        # A cell's own hint beats the family fallback.
        assert expected_cost(hinted, {}) == pytest.approx(7.5)

    def test_engine_runtime_hints_survive_missing_journal(self, tmp_path):
        engine = ExecutionEngine(
            jobs=1, journal=RunJournal(tmp_path / "absent.jsonl")
        )
        assert engine._runtime_hints() == {}
        assert ExecutionEngine(jobs=1)._runtime_hints() == {}


class TestDeadAtDispatch:
    def test_single_crash_no_timeout(self, monkeypatch, tmp_path):
        """A worker dead before ``conn.send`` books one crash, zero
        timeouts, and one ordinary retry for the head cell.

        Regression: the send failure used to be swallowed with the
        deadline left armed, so the sweep could *also* book a
        ``worker.timeout`` for a cell the worker never received.
        """
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        engine = ExecutionEngine(
            jobs=2, timeout=30.0, retries=1, backoff_base=0.001
        )
        cells = [SleepCell(i, 0.01, hint=1.0) for i in range(2)]
        pending = [(i, cell, cell_key(cell)) for i, cell in enumerate(cells)]
        supervisor = _Supervisor(engine, pending)
        victim = supervisor.workers[0].process
        victim.kill()
        victim.join()
        outcomes = dict(supervisor.run())
        assert len(outcomes) == 2
        assert all(o.status == "computed" for o in outcomes.values())
        assert engine.telemetry.worker_crashes == 1
        assert engine.telemetry.worker_timeouts == 0
        # Exactly one cell burned exactly one crash retry.
        assert sorted(o.attempts for o in outcomes.values()) == [1, 2]
        assert not read_events(sink, "worker.timeout")
        assert len(read_events(sink, "worker.crash")) == 1


class TestSharedQueue:
    def test_cells_leave_longest_first_behind_ready_retries(self):
        """Dispatch order: a ready retry, then cells by non-increasing
        expected cost with ties in input order; a retry still backing
        off waits."""
        costs = [1.0, 5.0, 3.0, 5.0, 1.0, 3.0]
        cells = [SleepCell(i, 0.0, hint=c) for i, c in enumerate(costs)]
        planner = _planner(ExecutionEngine(jobs=2), hints={})
        planner._enqueue([(i, c, cell_key(c)) for i, c in enumerate(cells)])
        now = time.monotonic()
        backing_off = SleepCell(91, 0.0, hint=0.1)
        ready = SleepCell(90, 0.0, hint=0.1)
        planner.queue.append((91, backing_off, "k91", now + 1000.0))
        planner.queue.append((90, ready, "k90", now))

        assert planner._next_task(now) == (90, ready, "k90")
        order = []
        while (task := planner._next_task(now)) is not None:
            index, cell, key = task
            assert key == cell_key(cell)
            order.append(index)
        assert order == [1, 3, 2, 5, 0, 4]
        # The retry still backing off never jumped the queue.
        assert [task[0] for task in planner.queue] == [91]

    def test_shared_queue_rescues_inverted_cost_estimates(self):
        """Deterministic straggler: the hints are inverted (one trivial
        cell claims to be enormous). A static per-worker placement
        would park all real work behind it on one worker; the shared
        queue hands every idle worker the next cell instead."""
        decoy = SleepCell(0, 0.05, hint=1000.0)
        real = [SleepCell(i, 0.3, hint=1.0) for i in range(1, 7)]
        engine = ExecutionEngine(jobs=2)
        outcomes = engine.run([decoy] + real)
        assert all(o.status == "computed" for o in outcomes)
        snap = engine.telemetry.snapshot()
        # Serialized on one worker the six real cells take >= 1.8s;
        # shared, they split across both workers.
        assert snap["wall_seconds"] < 1.5

    def test_batched_results_bit_identical_to_serial(self):
        cells = [
            MixSchemeCell(pairs=PAIRS, scheme=scheme, profile=TEST)
            for scheme in ("static", "shared", "time")
        ]
        serial = ExecutionEngine(jobs=1).run(cells)
        parallel = ExecutionEngine(jobs=3).run(cells)
        for a, b in zip(serial, parallel):
            assert a.cell.encode(a.value) == b.cell.encode(b.value)


class TestResumeUnderParallelDispatch:
    def test_invariant_holds_with_replays(self, monkeypatch, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        old = [SleepCell(i, 0.0, hint=1.0) for i in range(6)]
        first = ExecutionEngine(jobs=4, journal=journal)
        first.run(old)

        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        new = [SleepCell(i, 0.0, hint=1.0) for i in range(6, 10)]
        second = ExecutionEngine(
            jobs=4, journal=RunJournal(journal.path), resume=True
        )
        outcomes = second.run(old + new)
        assert all(o.ok for o in outcomes)
        snap = second.telemetry.snapshot()
        assert snap["replayed"] == 6
        assert snap["computed"] == 4
        assert (
            snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
            == snap["total"]
        )
        # Replayed cells never reach the supervisor: only the four new
        # cells were dispatched.
        dispatched = read_events(sink, "cell.dispatch")
        assert sorted(e["attrs"]["label"] for e in dispatched) == sorted(
            cell.label for cell in new
        )


class TestCrashAccounting:
    def test_dispatches_equal_attempts_and_only_crashed_cell_retries(
        self, monkeypatch, tmp_path
    ):
        """One cell per dispatch: a worker crash costs exactly its own
        cell an attempt, and no other cell is dispatched twice."""
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        state = tmp_path / "fault-state"
        state.mkdir()
        engine = ExecutionEngine(
            jobs=2,
            retries=2,
            backoff_base=0.001,
            faults=parse_fault_spec(f"crash=sleep[3];state={state}"),
        )
        cells = [SleepCell(i, 0.01, hint=1.0) for i in range(6)]
        outcomes = engine.run(cells)
        assert all(o.status == "computed" for o in outcomes)
        assert engine.telemetry.worker_crashes == 1
        dispatched = read_events(sink, "cell.dispatch")
        assert len(dispatched) == sum(o.attempts for o in outcomes)
        retried = [o.cell.label for o in outcomes if o.attempts > 1]
        assert retried == ["sleep[3]"]


class TestHintGranularity:
    """Journal runtime hints: label, (family, profile), legacy family."""

    def test_profiled_entries_build_label_and_profile_keys(self):
        entries = {
            "a": JournalEntry(
                "a", "mix[x]/untangle", "computed", 4.0, 1, profile="test"
            ),
            "b": JournalEntry(
                "b", "mix[y]/untangle", "computed", 2.0, 1, profile="test"
            ),
            "c": JournalEntry(
                "c", "mix[x]/untangle", "computed", 40.0, 1, profile="bench"
            ),
        }
        hints = runtime_hints_from_entries(entries)
        assert hints[("untangle", "test")] == pytest.approx(3.0)
        assert hints[("untangle", "bench")] == pytest.approx(40.0)
        # Labels repeat across profiles; the label mean pools them.
        assert hints["mix[x]/untangle"] == pytest.approx(22.0)
        # Profiled entries never feed the legacy bare-family key.
        assert "untangle" not in hints

    def test_expected_cost_prefers_label_then_profile_then_family(self):
        cell = MixSchemeCell(pairs=PAIRS, scheme="untangle", profile=TEST)
        label_hints = {
            cell.label: 5.0,
            ("untangle", "test"): 9.0,
            "untangle": 2.0,
        }
        assert expected_cost(cell, label_hints) == pytest.approx(5.0)
        del label_hints[cell.label]
        assert expected_cost(cell, label_hints) == pytest.approx(9.0)
        del label_hints[("untangle", "test")]
        # Legacy journals (no profile recorded) still order the seeding.
        assert expected_cost(cell, label_hints) == pytest.approx(2.0)

    def test_wrong_profile_history_is_ignored(self):
        cell = MixSchemeCell(pairs=PAIRS, scheme="untangle", profile=TEST)
        # Only bench-profile history exists: a test-profile campaign
        # must fall through to the family weight, not inherit walls
        # that are orders of magnitude off.
        bench_only = {("untangle", "bench"): 1000.0}
        assert expected_cost(cell, bench_only) == expected_cost(cell, {})
