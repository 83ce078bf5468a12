"""Engine observability: tracing integration and telemetry accounting.

Pins the guarantees the observability layer makes:

* **Accounting invariant** — ``computed + hit + replayed + failed ==
  total`` for every campaign shape, including journal-resume; replayed
  cells are never double-booked as misses or simulations.
* **Backoff exclusion** — a retried cell's ``wall_seconds`` is the time
  its attempts actually executed; retry backoff sleeps are excluded on
  both the serial and the parallel path, and the two agree.
* **Differential telemetry** — the same campaign at ``jobs=1`` and
  ``jobs=4`` (cold and warm cache) reports identical counters.
* **Span coverage** — with ``REPRO_TRACE`` set, the per-cell spans sum
  to within 5% of the engine's wall clock, and the trace renders
  through ``trace-summarize``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.harness.exec import ExecutionEngine, ResultCache, cell_key
from repro.harness.journal import RunJournal
from repro.harness.report import render_telemetry
from repro.obs.summarize import render_summary, summarize_trace
from repro.obs.trace import TRACE_ENV


class WorkCell:
    """A deterministic, journal/cache-able busy-work cell."""

    def __init__(self, ident: int, seconds: float = 0.02):
        self.ident = ident
        self.seconds = seconds

    @property
    def label(self) -> str:
        return f"work[{self.ident}]"

    def cache_token(self):
        return {"kind": "work", "ident": self.ident, "seconds": self.seconds}

    def execute(self):
        time.sleep(self.seconds)
        return self.ident * 10

    @staticmethod
    def cycles_of(value):
        return 100

    @staticmethod
    def encode(value):
        return {"v": value}

    @staticmethod
    def decode(payload):
        return payload["v"]


class FlakyCell(WorkCell):
    """Fails on the first attempt (per sentinel file), succeeds after.

    The sentinel lives on disk so the retry is observed consistently
    whether the attempts run in-process (serial) or on any mix of pool
    workers (parallel).
    """

    def __init__(self, ident: int, sentinel: str, seconds: float = 0.02):
        super().__init__(ident, seconds)
        self.sentinel = sentinel

    def cache_token(self):
        return {**super().cache_token(), "kind": "flaky", "s": self.sentinel}

    def execute(self):
        time.sleep(self.seconds)
        path = Path(self.sentinel)
        if not path.exists():
            path.write_text("attempted")
            raise RuntimeError("first attempt always fails")
        return super().execute()


def snapshot_counts(engine):
    """The order-independent, timing-independent part of the snapshot."""
    snap = engine.telemetry.snapshot()
    return {
        key: snap[key]
        for key in (
            "total",
            "computed",
            "hit",
            "replayed",
            "failed",
            "misses",
            "retries",
            "quarantined",
            "worker_crashes",
            "worker_timeouts",
        )
    }


def assert_invariant(engine):
    snap = engine.telemetry.snapshot()
    assert (
        snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
        == snap["total"]
    ), snap


class TestAccountingInvariant:
    def test_cold_warm_and_failed(self, tmp_path):
        cells = [WorkCell(i) for i in range(3)]
        cold = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        cold.run(cells)
        assert_invariant(cold)
        assert snapshot_counts(cold)["computed"] == 3

        warm = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        warm.run(cells)
        assert_invariant(warm)
        assert snapshot_counts(warm)["hit"] == 3
        assert snapshot_counts(warm)["misses"] == 0

    def test_replayed_cells_are_not_misses_or_simulations(self, tmp_path):
        """Satellite bugfix audit: resume must not double-book work a
        previous campaign already paid for."""
        cells = [WorkCell(i) for i in range(3)]
        journal = RunJournal(tmp_path / "journal.jsonl")
        first = ExecutionEngine(jobs=1, journal=journal)
        first.run(cells)
        journal.close()

        resumed = ExecutionEngine(
            jobs=1, journal=RunJournal(tmp_path / "journal.jsonl"), resume=True
        )
        resumed.run(cells)
        assert_invariant(resumed)
        snap = resumed.telemetry.snapshot()
        assert snap["replayed"] == 3
        assert snap["computed"] == 0
        assert snap["misses"] == 0
        assert resumed.telemetry.journal_replays == 3
        assert resumed.telemetry.simulations == 0
        assert resumed.telemetry.cache_misses == 0

    def test_rendered_totals_match_snapshot(self, tmp_path):
        """The printed telemetry block renders the same canonical
        counters the exporters publish."""
        cells = [WorkCell(i) for i in range(2)]
        journal = RunJournal(tmp_path / "journal.jsonl")
        ExecutionEngine(jobs=1, journal=journal).run(cells)
        journal.close()
        engine = ExecutionEngine(
            jobs=1,
            journal=RunJournal(tmp_path / "journal.jsonl"),
            resume=True,
        )
        engine.run(cells + [WorkCell(99)])
        assert_invariant(engine)
        snap = engine.telemetry.snapshot()
        text = render_telemetry(engine.telemetry)
        assert f"cells:        {snap['total']}" in text
        assert (
            f"{snap['replayed']} journal replays, {snap['hit']} cache hits, "
            f"{snap['computed']} simulated, {snap['failed']} failed"
        ) in text


class TestBackoffExcludedFromWallSeconds:
    """Satellite bugfix: serial retry backoff inflated wall_seconds."""

    BACKOFF = 2.0  # long enough that inclusion would be unmissable

    def run_flaky(self, tmp_path, jobs):
        tmp_path.mkdir(parents=True, exist_ok=True)
        sentinel = tmp_path / f"sentinel-{jobs}"
        cell = FlakyCell(jobs, str(sentinel), seconds=0.05)
        engine = ExecutionEngine(
            jobs=jobs, retries=1, backoff_base=self.BACKOFF
        )
        (outcome,) = engine.run([cell])
        assert outcome.status == "computed"
        assert outcome.attempts == 2
        assert engine.telemetry.retries == 1
        # The backoff was scheduled (and slept) but not booked as work.
        assert engine.telemetry.backoff_seconds >= self.BACKOFF * 0.5
        return outcome.wall_seconds

    def test_serial_excludes_backoff_sleep(self, tmp_path):
        wall = self.run_flaky(tmp_path, jobs=1)
        # Two ~0.05s attempts; anything near BACKOFF means the sleep
        # leaked back into the measurement.
        assert wall < 0.9

    def test_serial_and_parallel_agree(self, tmp_path):
        serial = self.run_flaky(tmp_path / "serial", jobs=1)
        parallel = self.run_flaky(tmp_path / "parallel", jobs=2)
        assert parallel < 0.9
        assert abs(serial - parallel) < 0.5


class TestDifferentialTelemetry:
    """Identical counters regardless of job count, cold and warm."""

    def campaign(self, tmp_path, jobs, tag):
        root = tmp_path / f"{tag}-{jobs}"
        root.mkdir()
        cells = [WorkCell(i) for i in range(3)]
        cells.append(FlakyCell(100, str(root / "sentinel"), seconds=0.01))
        cache = ResultCache(root / "cache")
        # Pre-plant one corrupt cache entry so a quarantine happens.
        corrupt_key = cell_key(cells[0])
        cache.put(corrupt_key, {"value": "torn"})
        cache.corrupt_entry(corrupt_key)
        engine = ExecutionEngine(
            jobs=jobs, cache=cache, retries=1, backoff_base=0.01
        )
        engine.run(cells)
        return engine, cells, cache

    def test_cold_and_warm_counters_match_across_job_counts(self, tmp_path):
        serial, cells_s, cache_s = self.campaign(tmp_path, 1, "cold")
        parallel, cells_p, cache_p = self.campaign(tmp_path, 4, "cold")
        expected = {
            "total": 4,
            "computed": 4,
            "hit": 0,
            "replayed": 0,
            "failed": 0,
            "misses": 4,
            "retries": 1,
            "quarantined": 1,
            "worker_crashes": 0,
            "worker_timeouts": 0,
        }
        assert snapshot_counts(serial) == expected
        assert snapshot_counts(parallel) == expected
        assert_invariant(serial)
        assert_invariant(parallel)

        warm_serial = ExecutionEngine(jobs=1, cache=cache_s)
        warm_serial.run(cells_s)
        warm_parallel = ExecutionEngine(jobs=4, cache=cache_p)
        warm_parallel.run(cells_p)
        warm_expected = {
            "total": 4,
            "computed": 0,
            "hit": 4,
            "replayed": 0,
            "failed": 0,
            "misses": 0,
            "retries": 0,
            "quarantined": 0,
            "worker_crashes": 0,
            "worker_timeouts": 0,
        }
        assert snapshot_counts(warm_serial) == warm_expected
        assert snapshot_counts(warm_parallel) == warm_expected


class TestTraceCoverage:
    """Acceptance: spans account for the engine's wall clock."""

    def read_spans(self, path):
        spans = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["kind"] == "span":
                spans.append(record)
        return spans

    def test_cell_spans_sum_to_engine_wall_clock(self, monkeypatch, tmp_path):
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        cells = [WorkCell(i, seconds=0.25) for i in range(2)]
        engine = ExecutionEngine(jobs=1)  # no journal: no fsync stalls
        engine.run(cells)
        spans = self.read_spans(sink)
        cell_time = sum(
            s["dur"] for s in spans if s["name"].startswith("cell.")
        )
        wall = engine.telemetry.wall_seconds
        assert cell_time == pytest.approx(wall, rel=0.05)
        (run_span,) = [s for s in spans if s["name"] == "engine.run"]
        assert run_span["attrs"]["cells"] == 2
        assert run_span["attrs"]["computed"] == 2
        assert run_span["attrs"]["interrupted"] is False

    def test_hit_and_retry_instrumentation(self, monkeypatch, tmp_path):
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        cache = ResultCache(tmp_path / "cache")
        flaky = FlakyCell(7, str(tmp_path / "sentinel"), seconds=0.01)
        ExecutionEngine(
            jobs=1, cache=cache, retries=1, backoff_base=0.01
        ).run([flaky])
        ExecutionEngine(jobs=1, cache=cache).run([flaky])
        names = [
            json.loads(line)["name"]
            for line in sink.read_text().splitlines()
        ]
        assert "cell.retry" in names  # the failed first attempt
        assert "cell.compute" in names
        assert "cell.hit" in names  # the second campaign's warm lookup

    def test_trace_summarize_renders_engine_trace(
        self, monkeypatch, tmp_path
    ):
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        ExecutionEngine(jobs=1).run([WorkCell(1)])
        text = render_summary(summarize_trace(sink))
        assert "engine.run" in text
        assert "cell.compute" in text


class TestSimulatorSpans:
    def test_sim_run_span_carries_scheme_and_counters(
        self, monkeypatch, tmp_path
    ):
        from repro.harness.experiment import run_mix_scheme
        from repro.harness.runconfig import TEST

        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        run_mix_scheme([("gcc_2", "AES-128")], "untangle", TEST)
        spans = [
            json.loads(line)
            for line in sink.read_text().splitlines()
            if json.loads(line)["kind"] == "span"
        ]
        (sim,) = [s for s in spans if s["name"] == "sim.run"]
        attrs = sim["attrs"]
        assert attrs["scheme"] == "untangle"
        assert attrs["kernel"] in ("batched", "reference")
        assert attrs["completed"] is True
        assert attrs["quanta"] > 0
        assert attrs["resizes"] >= 0
        # Untangle builds UMON monitors; they observed real accesses.
        assert attrs["monitor_observed"] > 0
        assert attrs["monitor_sampled"] > 0

    _PHASES = (
        "phase_l1_read_s",
        "phase_llc_walk_s",
        "phase_monitor_feed_s",
        "phase_stall_s",
        "phase_scheme_s",
    )

    @staticmethod
    def _cold_sim_run(monkeypatch, tmp_path, scheme) -> dict:
        """The ``sim.run`` span of one traced two-domain run, cold memo."""
        from repro.harness import experiment
        from repro.harness.runconfig import TEST

        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        # A fresh memo, so this run walks its own traces.
        monkeypatch.setattr(experiment, "_L1_TRACE_MEMO", {})
        experiment.run_mix_scheme(
            [("gcc_2", "AES-128"), ("imagick_0", "SHA-256")], scheme, TEST
        )
        (sim,) = [
            span
            for span in map(json.loads, sink.read_text().splitlines())
            if span["kind"] == "span" and span["name"] == "sim.run"
        ]
        return sim

    @pytest.mark.parametrize("scheme", ["time", "untangle"])
    def test_sim_run_phases_cover_the_run(self, monkeypatch, tmp_path, scheme):
        """The kernel phase timers account for >= 95% of ``sim.run``."""
        sim = self._cold_sim_run(monkeypatch, tmp_path, scheme)
        attrs = sim["attrs"]
        phases = [attrs[name] for name in self._PHASES]
        assert all(value > 0 for value in phases)
        assert sum(phases) >= 0.95 * sim["dur"]
        assert sum(phases) <= sim["dur"]
        # Both streams' L1 and monitor traces were walked to their cycle
        # during this run (two or three passes each).
        assert 2 * 2 <= attrs["l1_trace_passes"] <= 2 * 2
        assert 2 * 2 <= attrs["monitor_trace_passes"] <= 2 * 3
        assert attrs["llc_trace_passes"] == 0

    def test_static_run_phases_cover_the_run(self, monkeypatch, tmp_path):
        """Static's fixed partitions read LLC service traces, no monitor."""
        sim = self._cold_sim_run(monkeypatch, tmp_path, "static")
        attrs = sim["attrs"]
        phases = [attrs[name] for name in self._PHASES]
        assert sum(phases) >= 0.95 * sim["dur"]
        assert sum(phases) <= sim["dur"]
        assert attrs["phase_monitor_feed_s"] == 0
        assert attrs["monitor_trace_passes"] == 0
        # Fixed partitions never walk or settle their live LLC.
        assert attrs["llc_walked"] == attrs["llc_settles"] == 0
        # The LLC trace reads walked both streams' traces (the L1 walks
        # they trigger included) during this run.
        assert attrs["phase_llc_walk_s"] > 0
        assert attrs["llc_trace_passes"] > 0
        assert attrs["l1_trace_passes"] > 0

    def test_fixed_llc_trace_walks_only_what_is_read(
        self, monkeypatch, tmp_path
    ):
        """A Figure 11 cell walks its LLC service trace block by block,
        only as far as it reads: at most one kept run past its committed
        position, rounded up to one block, and not the whole second pass
        that the 1 + warmup passes it reads start."""
        from repro.harness import sensitivity
        from repro.harness.runconfig import SCALED
        from repro.sim.cpu import KEPT_RUN_EVENTS
        from repro.sim.hierarchy import LLC_TRACE_BLOCK
        from repro.workloads.spec import SPEC_BENCHMARKS

        systems = []

        class Recording(sensitivity.MultiDomainSystem):
            def run(self, *args, **kwargs):
                systems.append(self)
                return super().run(*args, **kwargs)

        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        monkeypatch.setattr(sensitivity, "MultiDomainSystem", Recording)
        sensitivity.run_benchmark_at_size(
            SPEC_BENCHMARKS["gcc_2"], 256, SCALED
        )
        (sim,) = [
            span
            for span in map(json.loads, sink.read_text().splitlines())
            if span["kind"] == "span" and span["name"] == "sim.run"
        ]
        (memory,) = systems[0].memories
        trace = memory.llc_trace
        walked = sim["attrs"]["llc_trace_walked"]
        committed = sum(memory.level_counts.values())
        assert walked == trace.positions_walked
        assert committed <= walked <= (
            committed + KEPT_RUN_EVENTS + LLC_TRACE_BLOCK
        )
        # The stream is longer than a block, and the cell stops inside
        # its second pass, which it has not walked whole.
        period = systems[0].cores[0].stream.memory_instruction_count
        assert LLC_TRACE_BLOCK < period < committed < 2 * period
        assert walked < 2 * period
        assert sim["attrs"]["llc_trace_passes"] == 1

    def test_llc_work_counters_bound_the_walk(self, monkeypatch, tmp_path):
        """A Time cell walks each committed LLC access once, plus at most
        one kept run's walk per settle: a settle rolls back a walk of at
        most ``KEPT_RUN_EVENTS`` accesses and re-walks only its committed
        part, which the count of committed accesses already holds."""
        from repro.harness import experiment
        from repro.harness.runconfig import TEST
        from repro.sim.cpu import KEPT_RUN_EVENTS
        from repro.sim.hierarchy import MemoryLevel

        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        system = experiment.build_mix_system(
            [("gcc_2", "AES-128"), ("imagick_0", "SHA-256")], "time", TEST
        )
        system.run(max_cycles=TEST.max_cycles)
        (sim,) = [
            span
            for span in map(json.loads, sink.read_text().splitlines())
            if span["kind"] == "span" and span["name"] == "sim.run"
        ]
        walked = sim["attrs"]["llc_walked"]
        settles = sim["attrs"]["llc_settles"]
        memories = system.memories
        assert walked == sum(memory.llc_walked for memory in memories)
        assert settles == sum(memory.llc_settles for memory in memories)
        committed = sum(
            memory.level_counts[MemoryLevel.LLC]
            + memory.level_counts[MemoryLevel.DRAM]
            for memory in memories
        )
        assert settles > 0
        assert committed <= walked <= committed + settles * KEPT_RUN_EVENTS

    def test_untraced_run_reads_no_clock(self, monkeypatch):
        """With tracing off the kernel takes no phase timestamps."""
        import repro.sim.hierarchy as hierarchy
        import repro.sim.system as system
        from repro.harness.experiment import run_mix_scheme
        from repro.harness.runconfig import TEST

        def no_clock():
            raise AssertionError("perf_counter read with tracing off")

        monkeypatch.delenv(TRACE_ENV, raising=False)
        monkeypatch.setattr(hierarchy, "perf_counter", no_clock)
        monkeypatch.setattr(system, "perf_counter", no_clock)
        run_mix_scheme([("gcc_2", "AES-128")], "untangle", TEST)
