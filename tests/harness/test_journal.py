"""Tests for the crash-safe campaign journal and journal-backed resume.

The guarantee the fault-tolerant runner depends on: any cell the engine
*reported finished* is durably journaled, and a resumed run replays it
bit-identically with zero re-simulation — even when the cache is
disabled, the journal tail is torn by a crash, or a previous attempt
failed.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.exec import ExecutionEngine, ResultCache, cell_key
from repro.harness.experiment import run_mix_scheme
from repro.harness.journal import (
    JOURNAL_FORMAT_VERSION,
    JournalEntry,
    RunJournal,
)
from repro.harness.runconfig import TEST

from tests.harness.test_exec import PAIRS, SCHEMES, SleepCell, make_cells


def entry(key="k1", status="computed", value={"seconds": 1}, **kw):
    defaults = dict(
        key=key,
        label=f"cell-{key}",
        status=status,
        wall_seconds=0.5,
        attempts=1,
        value=value,
    )
    defaults.update(kw)
    return JournalEntry(**defaults)


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record(entry("k1", campaign="smoke"))
        journal.record(entry("k2", status="failed", value=None, error="boom"))
        loaded = RunJournal(tmp_path / "j.jsonl").load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"].ok and loaded["k1"].value == {"seconds": 1}
        assert loaded["k1"].campaign == "smoke"
        assert not loaded["k2"].ok and loaded["k2"].error == "boom"

    def test_missing_file_is_empty(self, tmp_path):
        assert RunJournal(tmp_path / "absent.jsonl").load() == {}

    def test_last_entry_wins(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record(entry("k1", status="failed", value=None, error="boom"))
        journal.record(entry("k1", status="computed"))
        loaded = journal.load()
        assert loaded["k1"].ok

    def test_torn_final_line_is_tolerated(self, tmp_path):
        """A crash mid-append damages only the last line; the rest loads."""
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1"))
        journal.record(entry("k2"))
        journal.close()
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # SIGKILL mid-write of k2
        path.write_text("\n".join(lines))
        fresh = RunJournal(path)
        loaded = fresh.load()
        assert set(loaded) == {"k1"}
        assert fresh.corrupt_lines == 1

    def test_bitflip_detected_by_checksum(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1", wall_seconds=1.0))
        journal.close()
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"wall_seconds":1.0', '"wall_seconds":9.0')
        path.write_text("\n".join(lines) + "\n")
        fresh = RunJournal(path)
        assert fresh.load() == {}
        assert fresh.corrupt_lines == 1

    def test_format_version_mismatch_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1"))
        journal.close()
        text = path.read_text().replace(
            f'"format":{JOURNAL_FORMAT_VERSION}', '"format":-1'
        )
        path.write_text(text)
        assert RunJournal(path).load() == {}

    def test_appends_are_one_json_line_each(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1"))
        journal.record(entry("k2"))
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 3  # header + two records
        assert json.loads(lines[0])["kind"] == "header"
        assert all(json.loads(l)["kind"] == "cell" for l in lines[1:])


class TestGroupCommit:
    """Group-commit batching: fewer fsyncs, unchanged durability story."""

    def test_default_is_synchronous(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        seq = journal.record(entry("k1"))
        # batch_entries=1: durable before record() returns.
        assert journal.durable_seq == seq == 1
        assert journal.flushes == 1

    def test_batched_records_buffer_until_batch_fills(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path, batch_entries=3)
        s1 = journal.record(entry("k1"))
        s2 = journal.record(entry("k2"))
        # Buffered in user space: not yet durable, not yet on disk.
        assert journal.durable_seq == 0
        assert len(path.read_text().splitlines()) == 1  # header only
        s3 = journal.record(entry("k3"))
        assert journal.durable_seq == s3 == 3
        assert journal.flushes == 1  # one fsync for all three
        loaded = RunJournal(path).load()
        assert set(loaded) == {"k1", "k2", "k3"}
        assert (s1, s2, s3) == (1, 2, 3)

    def test_flush_commits_a_partial_batch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path, batch_entries=64)
        journal.record(entry("k1"))
        assert journal.durable_seq == 0
        journal.flush()
        assert journal.durable_seq == 1
        assert RunJournal(path).load()["k1"].ok

    def test_close_flushes_buffered_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path, batch_entries=64) as journal:
            journal.record(entry("k1"))
        assert set(RunJournal(path).load()) == {"k1"}

    def test_linger_flushes_a_stalled_partial_batch(self, tmp_path):
        import time

        journal = RunJournal(
            tmp_path / "j.jsonl", batch_entries=64, linger_seconds=0.05
        )
        journal.record(entry("k1"))
        deadline = time.monotonic() + 2.0
        while journal.durable_seq < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert journal.durable_seq == 1
        journal.close()

    def test_batched_lines_identical_to_synchronous(self, tmp_path):
        """Group commit changes *when* bytes hit the disk, not the bytes."""
        sync_path, batch_path = tmp_path / "sync.jsonl", tmp_path / "batch.jsonl"
        sync = RunJournal(sync_path)
        batched = RunJournal(batch_path, batch_entries=8)
        for journal in (sync, batched):
            journal.record(entry("k1", campaign="same"))
            journal.record(entry("k2", status="failed", value=None, error="x"))
            journal.close()
        assert sync_path.read_text() == batch_path.read_text()

    def test_engine_acks_only_after_fsync(self, tmp_path):
        """Progress lines lag the fsync, never lead it: every acked cell
        is durable even while later cells sit in the buffer."""
        journal = RunJournal(
            tmp_path / "j.jsonl", batch_entries=2, linger_seconds=3600
        )
        acked: list[str] = []
        durable_at_ack: list[int] = []

        def progress(line: str) -> None:
            acked.append(line)
            durable_at_ack.append(journal.durable_seq)

        engine = ExecutionEngine(
            jobs=1, journal=journal, progress=progress
        )
        engine.run([SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)])
        assert len(acked) == 3
        # Ack i is emitted only once its own record is durable.
        assert all(durable >= i + 1 for i, durable in enumerate(durable_at_ack))
        # The odd tail cell was committed by the teardown flush.
        assert journal.durable_seq == 3
        assert len(RunJournal(tmp_path / "j.jsonl").load()) == 3


class TestEngineJournaling:
    def test_every_finished_cell_is_journaled(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        engine = ExecutionEngine(jobs=1, journal=journal)
        cells = [SleepCell(0.01), SleepCell(0.02)]
        engine.run(cells, campaign="unit")
        loaded = journal.load()
        assert len(loaded) == 2
        assert all(e.status == "computed" for e in loaded.values())
        assert all(e.campaign == "unit" for e in loaded.values())

    def test_resume_replays_without_resimulating(self, tmp_path):
        """Journal-only resume: zero simulations, no cache needed."""
        cells = [SleepCell(0.01), SleepCell(0.02)]
        first = ExecutionEngine(jobs=1, journal=RunJournal(tmp_path / "j.jsonl"))
        baseline = first.run(cells)
        resumed = ExecutionEngine(
            jobs=1, journal=RunJournal(tmp_path / "j.jsonl"), resume=True
        )
        outcomes = resumed.run(cells)
        assert resumed.telemetry.simulations == 0
        assert resumed.telemetry.journal_replays == len(cells)
        assert [o.status for o in outcomes] == ["replayed", "replayed"]
        assert [o.value for o in outcomes] == [o.value for o in baseline]

    def test_resume_replay_is_bit_identical_for_mix_cells(self, tmp_path):
        direct = run_mix_scheme(list(PAIRS), "static", TEST)
        cells = make_cells(schemes=("static",))
        ExecutionEngine(jobs=1, journal=RunJournal(tmp_path / "j.jsonl")).run(
            cells
        )
        resumed = ExecutionEngine(
            jobs=1, journal=RunJournal(tmp_path / "j.jsonl"), resume=True
        )
        outcomes = resumed.run(cells)
        assert resumed.telemetry.simulations == 0
        # The JSON round-trip is exact: floats compare equal bit-wise.
        assert outcomes[0].value == direct

    def test_failed_cells_rerun_on_resume(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record(
            JournalEntry(
                key=cell_key(SleepCell(0.01)),
                label="sleep[0.01]",
                status="failed",
                wall_seconds=0.1,
                attempts=2,
                value=None,
                error="boom",
            )
        )
        engine = ExecutionEngine(
            jobs=1, journal=RunJournal(tmp_path / "j.jsonl"), resume=True
        )
        outcomes = engine.run([SleepCell(0.01)])
        assert outcomes[0].status == "computed"
        assert engine.telemetry.simulations == 1
        # The journal now remembers the success, not the failure.
        assert RunJournal(tmp_path / "j.jsonl").load()[outcomes[0].key].ok

    def test_unknown_cells_run_normally_under_resume(self, tmp_path):
        engine = ExecutionEngine(
            jobs=1, journal=RunJournal(tmp_path / "j.jsonl"), resume=True
        )
        outcomes = engine.run([SleepCell(0.01)])
        assert outcomes[0].status == "computed"

    def test_resume_with_parallel_engine(self, tmp_path):
        cells = [SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)]
        ExecutionEngine(jobs=2, journal=RunJournal(tmp_path / "j.jsonl")).run(
            cells
        )
        resumed = ExecutionEngine(
            jobs=2, journal=RunJournal(tmp_path / "j.jsonl"), resume=True
        )
        outcomes = resumed.run(cells)
        assert resumed.telemetry.simulations == 0
        assert [o.value for o in outcomes] == [0.01, 0.02, 0.03]

    def test_partial_journal_resumes_only_missing_cells(self, tmp_path):
        """The crash-recovery contract: journaled cells replay, the rest
        (including a torn final line) re-run."""
        path = tmp_path / "j.jsonl"
        cells = [SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)]
        ExecutionEngine(jobs=1, journal=RunJournal(path)).run(cells)
        # Simulate a SIGKILL mid-append: drop the last record's tail.
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        resumed = ExecutionEngine(jobs=1, journal=RunJournal(path), resume=True)
        outcomes = resumed.run(cells)
        assert resumed.telemetry.journal_replays == 2
        assert resumed.telemetry.simulations == 1
        assert [o.value for o in outcomes] == [0.01, 0.02, 0.03]

    def test_cache_hits_are_journaled_for_future_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExecutionEngine(jobs=1, cache=cache).run([SleepCell(0.01)])
        journal = RunJournal(tmp_path / "j.jsonl")
        engine = ExecutionEngine(jobs=1, cache=cache, journal=journal)
        outcomes = engine.run([SleepCell(0.01)])
        assert outcomes[0].status == "hit"
        loaded = journal.load()
        assert loaded[outcomes[0].key].status == "hit"
        assert loaded[outcomes[0].key].ok

    def test_journal_precedence_over_cache_still_bit_identical(self, tmp_path):
        """Resume prefers the journal; values agree with the cache path."""
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "j.jsonl"
        cells = make_cells(schemes=SCHEMES)
        ExecutionEngine(jobs=1, cache=cache, journal=RunJournal(journal_path)).run(
            cells
        )
        via_journal = ExecutionEngine(
            jobs=1, journal=RunJournal(journal_path), resume=True
        ).run(cells)
        via_cache = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path / "cache")).run(
            cells
        )
        assert [o.value for o in via_journal] == [o.value for o in via_cache]
