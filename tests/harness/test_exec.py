"""Tests for the parallel execution engine and its result cache.

The two guarantees the benchmark harness depends on:

* **Serial equivalence** — an engine run (any job count, cached or not)
  produces bit-identical ``SchemeRunResult``s to calling
  :func:`run_mix_scheme` directly.
* **Warm cache** — re-running the same grid against the same cache
  directory performs zero simulations; every cell is a cache hit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import time

import pytest

from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.harness import exec as exec_module
from repro.harness.exec import (
    CACHE_FORMAT_VERSION,
    ExecutionEngine,
    MixSchemeCell,
    ResultCache,
    SensitivityCell,
    backoff_delay,
    cell_key,
    engine_from_env,
)
from repro.harness.experiment import run_mix, run_mix_grid, run_mix_scheme
from repro.harness.integrity import seal
from repro.harness.journal import RunJournal
from repro.harness.runconfig import TEST
from repro.harness.sensitivity import run_sensitivity_study

PAIRS = (("gcc_2", "AES-128"), ("imagick_0", "SHA-256"))
SCHEMES = ("static", "untangle")


def make_cells(profile=TEST, schemes=SCHEMES):
    return [
        MixSchemeCell(pairs=PAIRS, scheme=scheme, profile=profile)
        for scheme in schemes
    ]


class TestCacheKey:
    def test_deterministic(self):
        a, b = make_cells()[0], make_cells()[0]
        assert cell_key(a) == cell_key(b)

    def test_sensitive_to_every_input(self):
        base = MixSchemeCell(pairs=PAIRS, scheme="static", profile=TEST)
        variants = [
            MixSchemeCell(pairs=PAIRS[:1], scheme="static", profile=TEST),
            MixSchemeCell(pairs=PAIRS, scheme="time", profile=TEST),
            MixSchemeCell(
                pairs=PAIRS,
                scheme="static",
                profile=dataclasses.replace(TEST, seed=TEST.seed + 1),
            ),
            MixSchemeCell(
                pairs=PAIRS,
                scheme="static",
                profile=dataclasses.replace(TEST, quantum=TEST.quantum + 1),
            ),
            SensitivityCell(benchmark="gcc_2", partition_lines=64, profile=TEST),
        ]
        keys = {cell_key(base)} | {cell_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_pair_order_matters(self):
        swapped = MixSchemeCell(
            pairs=PAIRS[::-1], scheme="static", profile=TEST
        )
        assert cell_key(swapped) != cell_key(make_cells()[0])


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"value": {"ipc": 1.25}})
        payload = cache.get("ab" * 32)
        assert payload["value"] == {"ipc": 1.25}
        assert payload["format"] == CACHE_FORMAT_VERSION

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"value": 1})
        cache.corrupt_entry(key)
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.quarantined == 1

    def test_format_mismatch_is_a_miss(self, tmp_path):
        # A correctly sealed line of another layout version: only the
        # version check can reject it.
        key = "01" * 32
        pack = tmp_path / "packs" / f"{key[:1]}.pack"
        pack.parent.mkdir()
        record = {"format": CACHE_FORMAT_VERSION - 1, "key": key, "value": 1}
        pack.write_text(seal(record) + "\n")
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.quarantined == 1

    def test_packed_puts_share_one_segment_per_shard(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [f"ab{i:02d}" + "0" * 60 for i in range(8)]
        for i, key in enumerate(keys):
            cache.put(key, {"value": i})
        packs = list((tmp_path / "packs").glob("*.pack"))
        assert len(packs) == 1  # all keys share the "a" shard
        for i, key in enumerate(keys):
            assert cache.get(key)["value"] == i

    def test_newer_append_shadows_older_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "be" * 32
        cache.put(key, {"value": 1})
        cache.put(key, {"value": 2})
        cache.release_handles()
        assert ResultCache(tmp_path).get(key)["value"] == 2

    def test_sidecar_index_survives_reopen(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"value": {"ipc": 2.5}})
        cache.release_handles()
        assert (tmp_path / "packs" / f"{key[:1]}.idx").exists()
        warm = ResultCache(tmp_path)
        assert warm.get(key)["value"] == {"ipc": 2.5}
        assert warm.hits == 1

    def test_stale_sidecar_triggers_rescan(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "da" * 32
        cache.put(key, {"value": 1})
        cache.release_handles()
        # Append behind the sidecar's back (a second process would).
        other = ResultCache(tmp_path)
        other.put(key, {"value": 2})
        other.release_handles()
        # The sidecar written first still says pack_bytes of one entry;
        # the reader must scan the tail and serve the newest append.
        assert ResultCache(tmp_path).get(key)["value"] == 2

    def test_per_file_entries_are_ignored(self, tmp_path):
        # Caches from before the packed layout kept one JSON file per
        # entry under ``<key[:2]>/``: such an entry is a plain miss
        # (recomputed), neither served nor quarantined.
        key = "fe" * 32
        old = tmp_path / key[:2] / f"{key}.json"
        old.parent.mkdir()
        old.write_text('{"format": 3, "value": 1}')
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        assert (cache.misses, cache.quarantined) == (1, 0)
        assert old.exists()

    def test_pack_damage_quarantines_only_damaged_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [f"aa{i:02d}" + "0" * 60 for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, {"value": i})
        cache.corrupt_entry(keys[1])
        fresh = ResultCache(tmp_path)
        assert fresh.get(keys[1]) is None
        # Exactly one entry was damaged; its neighbors still hit after
        # the compaction that dropped it.
        for i, key in enumerate(keys):
            if i != 1:
                assert fresh.get(key)["value"] == i
        assert fresh.quarantined == 1
        assert (tmp_path / "packs" / "a.corrupt").exists()


class TestEngineValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionEngine(jobs=0)
        with pytest.raises(ConfigurationError):
            ExecutionEngine(retries=-1)
        with pytest.raises(ConfigurationError):
            ExecutionEngine(timeout=0.0)
        with pytest.raises(ConfigurationError):
            ExecutionEngine(backoff_base=-0.1)


class TestEngineFromEnv:
    """``REPRO_*`` parsing: friendly errors, not bare ValueErrors."""

    def test_non_integer_jobs_raises_configuration_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError) as excinfo:
            engine_from_env()
        message = str(excinfo.value)
        assert "REPRO_JOBS" in message
        assert "'many'" in message  # the offending value
        assert "integer" in message  # the accepted forms

    def test_negative_jobs_raises_configuration_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ConfigurationError) as excinfo:
            engine_from_env()
        message = str(excinfo.value)
        assert "REPRO_JOBS" in message and "'-2'" in message

    def test_zero_jobs_means_one_per_cpu(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert engine_from_env().jobs >= 1

    def test_bad_retries_and_timeout_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "-1")
        with pytest.raises(ConfigurationError, match="REPRO_RETRIES"):
            engine_from_env()
        monkeypatch.delenv("REPRO_RETRIES")
        monkeypatch.setenv("REPRO_TIMEOUT", "soon")
        with pytest.raises(ConfigurationError, match="REPRO_TIMEOUT"):
            engine_from_env()

    def test_journal_and_resume_wiring(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESUME", "1")
        engine = engine_from_env()
        assert engine.resume
        assert engine.journal is not None
        assert engine.journal.path == tmp_path / "journal.jsonl"
        monkeypatch.setenv("REPRO_JOURNAL", "0")
        assert engine_from_env().journal is None

    def test_no_cache_dir_means_no_journal(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        engine = engine_from_env()
        assert engine.cache is None and engine.journal is None


class TestBackoff:
    def test_exponential_growth_with_cap(self):
        key = "k" * 64
        delays = [backoff_delay(key, n, 1.0, 8.0) for n in (1, 2, 3, 4, 5, 6)]
        # Jitter scales by [0.5, 1.0); growth dominates until the cap.
        assert delays[1] > delays[0]
        assert delays[2] > delays[1]
        assert all(d <= 8.0 for d in delays)

    def test_deterministic(self):
        assert backoff_delay("a", 2, 0.5, 30.0) == backoff_delay("a", 2, 0.5, 30.0)

    def test_jitter_differs_across_keys(self):
        assert backoff_delay("a", 1, 1.0, 30.0) != backoff_delay("b", 1, 1.0, 30.0)

    def test_zero_base_disables(self):
        assert backoff_delay("a", 5, 0.0, 30.0) == 0.0


class TestSerialEquivalence:
    """Engine results are bit-identical to direct serial simulation."""

    @pytest.fixture(scope="class")
    def direct(self):
        return {
            scheme: run_mix_scheme(list(PAIRS), scheme, TEST)
            for scheme in SCHEMES
        }

    def test_serial_engine_matches_direct(self, direct):
        outcomes = ExecutionEngine(jobs=1).run(make_cells())
        for scheme, outcome in zip(SCHEMES, outcomes):
            assert outcome.status == "computed"
            assert outcome.value == direct[scheme]

    def test_parallel_engine_matches_direct(self, direct):
        outcomes = ExecutionEngine(jobs=2).run(make_cells())
        for scheme, outcome in zip(SCHEMES, outcomes):
            assert outcome.status == "computed"
            assert outcome.value == direct[scheme]

    def test_cache_hit_matches_direct(self, direct, tmp_path):
        cache = ResultCache(tmp_path)
        ExecutionEngine(jobs=1, cache=cache).run(make_cells())
        outcomes = ExecutionEngine(jobs=1, cache=cache).run(make_cells())
        for scheme, outcome in zip(SCHEMES, outcomes):
            assert outcome.status == "hit"
            # The JSON round-trip is exact: floats compare equal bit-wise.
            assert outcome.value == direct[scheme]

    def test_run_mix_with_parallel_engine_matches_plain(self):
        plain = run_mix(1, TEST, schemes=SCHEMES)
        engine = ExecutionEngine(jobs=2)
        parallel = run_mix(1, TEST, schemes=SCHEMES, engine=engine)
        assert parallel.labels == plain.labels
        assert parallel.runs == plain.runs


class TestWarmCache:
    def test_second_run_performs_zero_simulations(self, tmp_path):
        cells = make_cells()
        cold = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        cold.run(cells)
        assert cold.telemetry.simulations == len(cells)
        assert cold.telemetry.cache_hits == 0

        warm = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        outcomes = warm.run(cells)
        assert warm.telemetry.simulations == 0
        assert warm.telemetry.cache_hits == len(cells)
        assert all(outcome.status == "hit" for outcome in outcomes)

    def test_figure_driver_grid_warms_like_bench_fig10(self, tmp_path):
        """The bench_fig10 path: run_mix per mix over a shared cache —
        a second session re-simulates nothing."""
        schemes = ("static", "untangle")
        first = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        for mix_id in (1, 2):
            run_mix(mix_id, TEST, schemes=schemes, engine=first)
        assert first.telemetry.simulations == 4

        second = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        results = {
            mix_id: run_mix(mix_id, TEST, schemes=schemes, engine=second)
            for mix_id in (1, 2)
        }
        assert second.telemetry.simulations == 0
        assert second.telemetry.cache_hits == 4
        assert all(set(r.runs) == set(schemes) for r in results.values())

    def test_profile_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExecutionEngine(cache=cache).run(make_cells())
        changed = dataclasses.replace(TEST, seed=TEST.seed + 1)
        engine = ExecutionEngine(cache=cache)
        engine.run(make_cells(profile=changed))
        assert engine.telemetry.cache_hits == 0
        assert engine.telemetry.simulations == len(SCHEMES)


class TestGracefulDegradation:
    def test_failed_cell_does_not_abort_grid(self):
        cells = [
            MixSchemeCell(pairs=PAIRS, scheme="static", profile=TEST),
            MixSchemeCell(pairs=PAIRS, scheme="no-such-scheme", profile=TEST),
        ]
        engine = ExecutionEngine(jobs=1)
        outcomes = engine.run(cells)
        assert outcomes[0].status == "computed"
        assert outcomes[1].status == "failed"
        assert "ConfigurationError" in outcomes[1].error
        # One initial attempt plus the configured retry.
        assert outcomes[1].attempts == 2
        assert engine.telemetry.failures == 1
        assert engine.telemetry.retries == 1

    def test_failed_cell_drops_scheme_from_mix_result(self):
        # Unknown names now fail fast before any cell is submitted
        # (tests/registry/test_registry.py), so runtime degradation
        # needs a registered scheme whose cells actually die.
        from repro.registry import REGISTRY, Registration

        def explode(profile, num_domains):
            raise RuntimeError("boom")

        exploding = Registration(
            kind="scheme", name="exploding", factory=explode
        )
        with REGISTRY.temporary(exploding):
            result = run_mix(
                1, TEST, schemes=("static", "exploding"),
                engine=ExecutionEngine(jobs=1),
            )
        assert "static" in result.runs
        assert "exploding" not in result.runs

    def test_parallel_failure_keeps_grid_going(self):
        cells = [
            MixSchemeCell(pairs=PAIRS, scheme="no-such-scheme", profile=TEST),
            MixSchemeCell(pairs=PAIRS, scheme="static", profile=TEST),
        ]
        engine = ExecutionEngine(jobs=2)
        outcomes = engine.run(cells)
        assert outcomes[0].status == "failed"
        assert outcomes[1].status == "computed"

    def test_failed_cell_is_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = MixSchemeCell(pairs=PAIRS, scheme="no-such-scheme", profile=TEST)
        ExecutionEngine(cache=cache).run([cell])
        assert cache.get(cell_key(cell)) is None


class SleepCell:
    """A test-only cell that sleeps; used to exercise timeouts."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    @property
    def label(self) -> str:
        return f"sleep[{self.seconds}]"

    def cache_token(self):
        return {"kind": "sleep", "seconds": self.seconds}

    def execute(self):
        time.sleep(self.seconds)
        return self.seconds

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return {"seconds": value}

    @staticmethod
    def decode(payload):
        return payload["seconds"]


class TestTimeout:
    def test_slow_cell_times_out_and_grid_continues(self):
        engine = ExecutionEngine(jobs=2, timeout=0.5, retries=0)
        outcomes = engine.run([SleepCell(30.0), SleepCell(0.01)])
        # Every attempt (the only one: retries=0) killed its worker, so
        # the circuit breaker books the cell as poisoned, not merely
        # failed; either way it is not ok and the grid continues.
        assert outcomes[0].status == "poisoned"
        assert not outcomes[0].ok
        assert "timeout" in outcomes[0].error
        assert outcomes[1].status == "computed"
        assert outcomes[1].value == 0.01
        # The hung worker was killed and the pool survived.
        assert engine.telemetry.worker_timeouts == 1
        assert engine.telemetry.workers_respawned == 1

    def test_failed_cell_records_actual_elapsed_time(self):
        """Failed/timed-out cells used to be booked at wall_seconds=0.0,
        undercounting cell_seconds; they must carry real elapsed time."""
        engine = ExecutionEngine(jobs=2, timeout=0.5, retries=0)
        outcomes = engine.run([SleepCell(30.0), SleepCell(0.01)])
        assert outcomes[0].wall_seconds >= 0.4
        failed = [r for r in engine.telemetry.records if not r.status == "computed"]
        assert failed and failed[0].wall_seconds >= 0.4
        assert engine.telemetry.cell_seconds >= 0.4

    def test_timed_out_retries_accumulate_elapsed_time(self):
        engine = ExecutionEngine(
            jobs=2, timeout=0.3, retries=1, backoff_base=0.01
        )
        outcomes = engine.run([SleepCell(30.0)])
        assert outcomes[0].status == "poisoned"  # both attempts killed workers
        assert outcomes[0].attempts == 2
        # Two killed attempts of ~0.3s each.
        assert outcomes[0].wall_seconds >= 0.5


class TestSensitivityEngine:
    def test_parallel_study_matches_serial(self):
        names = ["gcc_2"]
        serial = run_sensitivity_study(names, TEST)
        parallel = run_sensitivity_study(
            names, TEST, engine=ExecutionEngine(jobs=2)
        )
        assert serial.keys() == parallel.keys()
        assert serial["gcc_2"] == parallel["gcc_2"]

    def test_study_warm_cache(self, tmp_path):
        names = ["gcc_2"]
        cache = ResultCache(tmp_path)
        cold = ExecutionEngine(cache=cache)
        run_sensitivity_study(names, TEST, engine=cold)
        warm = ExecutionEngine(cache=cache)
        run_sensitivity_study(names, TEST, engine=warm)
        assert warm.telemetry.simulations == 0
        assert warm.telemetry.cache_hits == cold.telemetry.simulations > 0


class TestGrid:
    def test_grid_matches_per_mix_runs(self):
        grid = run_mix_grid((1,), TEST, schemes=("static",))
        single = run_mix(1, TEST, schemes=("static",))
        assert grid[1].runs == single.runs
        assert grid[1].labels == single.labels

    def test_telemetry_counts_cells_and_cycles(self):
        engine = ExecutionEngine(jobs=1)
        run_mix_grid((1,), TEST, schemes=SCHEMES, engine=engine)
        assert engine.telemetry.cells == len(SCHEMES)
        assert engine.telemetry.cycles_simulated > 0
        assert engine.telemetry.cell_seconds > 0
        assert engine.telemetry.wall_seconds > 0

    def test_progress_lines_emitted(self):
        lines = []
        engine = ExecutionEngine(jobs=1, progress=lines.append)
        engine.run(make_cells(schemes=("static",)))
        assert len(lines) == 1
        assert "status=computed" in lines[0]
        assert lines[0].startswith("[exec 1/1]")


class CountedCell:
    """Instant cell: every cost it incurs belongs to the control plane."""

    def __init__(self, index: int):
        self.index = index

    @property
    def label(self) -> str:
        return f"counted[{self.index}]"

    def cache_token(self):
        return {"kind": "work-count", "index": self.index}

    def execute(self):
        return {"index": self.index, "seventh": (self.index + 1) / 7.0}

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return value

    @staticmethod
    def decode(payload):
        return payload


class TestControlPlaneWorkCounts:
    """Exact counts of the control plane's I/O on a serial campaign.

    They pin group commit and the packed cache on any host: a
    regression shows as a wrong count, not as a slower ratio. The
    linger is far longer than the campaign, so every fsync comes from
    a full batch or the final flush.
    """

    BATCH = 64

    def _run(self, root, cells, monkeypatch):
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        cache = ResultCache(root / "cache")
        engine = ExecutionEngine(
            jobs=1,
            cache=cache,
            journal=RunJournal(
                root / "journal.jsonl",
                batch_entries=self.BATCH,
                linger_seconds=3600.0,
            ),
        )
        engine.run([CountedCell(i) for i in range(cells)], campaign="counts")
        monkeypatch.setattr(os, "fsync", real_fsync)
        return engine, cache, len(fsyncs)

    @staticmethod
    def _cache_files(root):
        return sorted(
            str(path.relative_to(root / "cache"))
            for path in (root / "cache").rglob("*")
            if path.is_file()
        )

    @pytest.mark.parametrize("cells", [1, 64, 65, 200])
    def test_one_journal_fsync_per_batch(self, tmp_path, monkeypatch, cells):
        _, _, fsyncs = self._run(tmp_path, cells, monkeypatch)
        # Plus one for the header a fresh journal writes synchronously.
        assert fsyncs == 1 + math.ceil(cells / self.BATCH)

    def test_cold_run_creates_only_pack_files(self, tmp_path):
        counts = {}
        for cells in (50, 500):
            root = tmp_path / str(cells)
            engine = ExecutionEngine(jobs=1, cache=ResultCache(root / "cache"))
            engine.run([CountedCell(i) for i in range(cells)])
            files = self._cache_files(root)
            assert files, "the cold run wrote no cache files"
            assert all(
                re.fullmatch(r"packs/[0-9a-f]\.(pack|idx)", name)
                for name in files
            ), files
            counts[cells] = len(files)
        assert counts[500] == counts[50] <= 2 * 16

    def test_warm_run_hits_every_cell_and_appends_nothing(
        self, tmp_path, monkeypatch
    ):
        cells = 200
        self._run(tmp_path, cells, monkeypatch)
        packs = sorted((tmp_path / "cache" / "packs").glob("*.pack"))
        sizes = [path.stat().st_size for path in packs]
        engine, cache, _ = self._run(tmp_path, cells, monkeypatch)
        snap = engine.telemetry.snapshot()
        assert (snap["hit"], snap["misses"], snap["computed"]) == (cells, 0, 0)
        assert (cache.hits, cache.misses) == (cells, 0)
        assert sorted((tmp_path / "cache" / "packs").glob("*.pack")) == packs
        assert [path.stat().st_size for path in packs] == sizes

    def test_warm_table6_reads_each_hit_once(
        self, tmp_path, monkeypatch, capsys
    ):
        # One pread per hit, plus the tail check _fd makes on each pack
        # it opens; no rescan, compaction or quarantine.
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        argv = ["--profile", "test", "--cache-dir", str(tmp_path), "table6"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        packs = sorted((tmp_path / "packs").glob("*.pack"))
        entries = sum(len(p.read_bytes().splitlines()) for p in packs)
        preads, pack_opens = [], []
        real_pread, real_open = os.pread, os.open

        def counting_pread(fd, length, offset):
            preads.append(length)
            return real_pread(fd, length, offset)

        def counting_open(path, *args, **kwargs):
            if str(path).endswith(".pack"):
                pack_opens.append(path)
            return real_open(path, *args, **kwargs)

        def no_pack_scan(path, *args, **kwargs):
            assert not str(path).endswith(".pack"), "pack rescanned"
            return open(path, *args, **kwargs)

        monkeypatch.setattr(os, "pread", counting_pread)
        monkeypatch.setattr(os, "open", counting_open)
        monkeypatch.setattr(exec_module, "open", no_pack_scan, raising=False)
        trace = tmp_path / "warm.jsonl"
        assert main([*argv[:4], "--trace", str(trace), "table6"]) == 0
        assert capsys.readouterr().out == cold
        names = [json.loads(line)["name"] for line in trace.open()]
        assert names.count("cell.hit") == entries == 12
        assert len(pack_opens) == len(packs)
        assert len(preads) == entries + len(packs)
        assert "cache.compact" not in names
        assert "cache.quarantine" not in names
