"""Cell-major batching and the supervisor's shared chunk queue.

Pins the scheduling guarantees:

* **Chunking** — batch-compatible cells are dispatched as chunks
  (``batch_cells`` explicit or auto-sized per group), with per-chunk
  ``batch.dispatch`` events and exact batches/batched-cells telemetry.
* **Shared queue** — chunks leave one queue longest-expected-first
  (ties in input order), behind any ready retry; a dead worker's
  unstarted tail goes back to the front. Every idle worker takes the
  next chunk, which rescues campaigns whose cost estimates inverted
  reality.
* **Dead-at-dispatch accounting** — a worker that dies before receiving
  its chunk is booked as exactly one crash (never a timeout), and the
  cell retries through the normal backoff path.
* **Bit identity** — batched parallel results are byte-for-byte the
  serial results, cache disabled.
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


class BatchableCell(SleepCell):
    """A sleep cell that opts into cell-major chunking."""

    def batch_group(self):
        return ("batchable",)


def _planner(engine, hints, slots=2):
    """A supervisor stripped to its planning state — no worker spawns."""
    supervisor = _Supervisor.__new__(_Supervisor)
    supervisor.engine = engine
    supervisor.slots = slots
    supervisor.queue = deque()
    supervisor.chunks = deque()
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


class TestChunking:
    def test_explicit_batch_cells_chunk_dispatch(self, monkeypatch, tmp_path):
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        cells = [BatchableCell(i, 0.01, hint=1.0) for i in range(6)]
        engine = ExecutionEngine(jobs=2, batch_cells=3)
        outcomes = engine.run(cells)
        assert all(o.status == "computed" for o in outcomes)
        snap = engine.telemetry.snapshot()
        assert snap["batches"] == 2
        assert snap["batched_cells"] == 6
        batch_events = read_events(sink, "batch.dispatch")
        assert len(batch_events) == 2
        assert all(e["attrs"]["cells"] == 3 for e in batch_events)

    def test_auto_cap_keeps_every_slot_busy_twice(self, tmp_path):
        # 12 compatible cells on 2 workers auto-chunk at 12 // (2*2) = 3,
        # i.e. 4 chunks — batching amortizes without costing balance.
        cells = [BatchableCell(i, 0.0, hint=1.0) for i in range(12)]
        engine = ExecutionEngine(jobs=2)
        engine.run(cells)
        snap = engine.telemetry.snapshot()
        assert snap["batches"] == 4
        assert snap["batched_cells"] == 12

    def test_cells_without_batch_group_stay_singletons(self):
        cells = [SleepCell(i, 0.0, hint=1.0) for i in range(5)]
        engine = ExecutionEngine(jobs=2, batch_cells=4)
        engine.run(cells)
        snap = engine.telemetry.snapshot()
        assert snap["batches"] == 5
        assert snap["batched_cells"] == 5

    def test_negative_batch_cells_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExecutionEngine(jobs=2, batch_cells=-1)


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
    def test_chunks_leave_longest_first_behind_ready_retries(self):
        """Dispatch order: a ready retry, then chunks by non-increasing
        expected cost with ties in input order; a requeued tail goes
        back to the front."""
        costs = [1.0, 5.0, 3.0, 5.0, 1.0, 3.0]
        cells = [SleepCell(i, 0.0, hint=c) for i, c in enumerate(costs)]
        planner = _planner(ExecutionEngine(jobs=2), hints={})
        planner._enqueue([(i, c, cell_key(c)) for i, c in enumerate(cells)])
        now = time.monotonic()
        backing_off = SleepCell(91, 0.0, hint=0.1)
        ready = SleepCell(90, 0.0, hint=0.1)
        planner.queue.append((91, backing_off, "k91", now + 1000.0))
        planner.queue.append((90, ready, "k90", now))

        assert [task[0] for task in planner._next_chunk(now)] == [90]
        assert [task[0] for task in planner._next_chunk(now)] == [1]
        # A dead worker's unstarted tail — however cheap — returns to
        # the front of the queue.
        tail = SleepCell(7, 0.0, hint=0.1)
        planner._requeue_unstarted([(7, tail, cell_key(tail))])
        order = []
        while (chunk := planner._next_chunk(now)) is not None:
            order.append([task[0] for task in chunk])
        assert order == [[7], [3], [2], [5], [0], [4]]
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
        batched = ExecutionEngine(jobs=3, batch_cells=2).run(cells)
        for a, b in zip(serial, batched):
            assert a.cell.encode(a.value) == b.cell.encode(b.value)


class TestResumeUnderBatching:
    def test_invariant_holds_with_replays_and_batches(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        old = [BatchableCell(i, 0.0, hint=1.0) for i in range(6)]
        first = ExecutionEngine(jobs=4, journal=journal)
        first.run(old)

        new = [BatchableCell(i, 0.0, hint=1.0) for i in range(6, 10)]
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
        # cells were chunked and dispatched.
        assert snap["batched_cells"] == 4


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


class TestCostAwarePlanning:
    def _cells(self, count):
        return [BatchableCell(i, 0.0, hint=1.0) for i in range(count)]

    @staticmethod
    def _pending(cells):
        return [(i, cell, cell_key(cell)) for i, cell in enumerate(cells)]

    def test_skewed_group_splits_stragglers_out(self):
        cells = self._cells(6)
        hints = {cell.label: 1.0 for cell in cells}
        hints[cells[2].label] = 10.0  # > 2x the median of 1.0
        planner = _planner(ExecutionEngine(jobs=2, batch_cells=6), hints)
        chunks = planner._plan_chunks(self._pending(cells))
        assert sorted(len(chunk.cells) for chunk in chunks) == [1, 5]
        singleton = next(c for c in chunks if len(c.cells) == 1)
        assert singleton.cells[0][1] is cells[2]
        assert singleton.cost == pytest.approx(10.0)
        # The remaining chunk preserves input order.
        rest = next(c for c in chunks if len(c.cells) == 5)
        assert [task[1].ident for task in rest.cells] == [0, 1, 3, 4, 5]

    def test_uniform_hints_never_split(self):
        cells = self._cells(6)
        hints = {cell.label: 3.0 for cell in cells}
        planner = _planner(ExecutionEngine(jobs=2, batch_cells=6), hints)
        chunks = planner._plan_chunks(self._pending(cells))
        assert [len(chunk.cells) for chunk in chunks] == [6]

    def test_skew_below_threshold_keeps_group_whole(self):
        cells = self._cells(5)
        hints = {cell.label: 1.0 for cell in cells}
        hints[cells[0].label] = 2.0  # exactly 2x median: not a straggler
        planner = _planner(ExecutionEngine(jobs=2, batch_cells=5), hints)
        chunks = planner._plan_chunks(self._pending(cells))
        assert [len(chunk.cells) for chunk in chunks] == [5]

    def test_split_runs_end_to_end(self, tmp_path):
        """A journal seeded with one straggler label reshapes dispatch."""
        journal = RunJournal(tmp_path / "journal.jsonl")
        cells = [BatchableCell(i, 0.0, hint=1.0) for i in range(6)]
        for cell in cells:
            journal.record(
                JournalEntry(
                    cell_key(cell),
                    cell.label,
                    "computed",
                    9.0 if cell.ident == 0 else 1.0,
                    1,
                )
            )
        journal.close()
        engine = ExecutionEngine(
            jobs=2, batch_cells=6, journal=RunJournal(journal.path)
        )
        outcomes = engine.run(cells)
        assert all(o.status == "computed" for o in outcomes)
        snap = engine.telemetry.snapshot()
        assert snap["batches"] == 2  # straggler singleton + the rest
        assert snap["batched_cells"] == 6
