"""The R_max table is solved on a pool worker, ahead of the cells that read it.

With ``--jobs 2`` and a precompute store, the engine hands each table the
store lacks to the supervisor as a store task: it is dispatched before
any cell, Untangle cells wait until it has stored the table, and cells
that need no table run meanwhile. Serial runs, runs without a store and
runs whose store degraded solve the table in the parent, as before.
These tests run the real command line (fresh processes: the rate-table
memo is process-global) at the ``test`` profile and check the gate in
the trace, the solve count in the metrics, and that stdout never moves.
The table's bits are pinned too, so neither a solver change nor the
worker/store round-trip can move one unnoticed, and a table's lock-step
solve must give every level the bits of solving it alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.dinkelbach import solve_rmax
from repro.core.rates import _M_SOLVES, RateEntry, RmaxTable
from repro.harness.exec import ExecutionEngine, MixSchemeCell
from repro.harness.faults import FaultPlan
from repro.harness.runconfig import BENCH, TEST
from repro.harness.store import (
    PrecomputeStore,
    clear_active_store,
    set_active_store,
    store_stats_delta,
    store_stats_snapshot,
)
from repro.schemes import untangle
from repro.schemes.untangle import (
    clear_rate_table_cache,
    default_channel_model,
    get_rate_table,
    load_rate_table,
    populate_rate_table,
    unsolved_rate_tables,
)
from repro.workloads.mixes import get_mix

ROOT = Path(__file__).resolve().parents[2]

#: sha256 over ``float.hex`` of every field of every entry of the
#: ``test``-profile tables (cooldown 500): the optimized 48-capacity
#: table (14 levels) and the worst-case table.
OPTIMIZED_TABLE_SHA256 = (
    "be528dbf685ff9d787187aee8ef64ac9a4990c7e6c5a606186b2f86d43bd5434"
)
WORST_CASE_TABLE_SHA256 = (
    "4c782f3b1be536d6d66eb2c78d09f8f8b7d5135d9f88dbb12489da4ba0eae5ae"
)
#: The same two tables at the ``bench`` profile's cooldown (4000), the
#: ones a cold ``--profile bench table6`` solves.
BENCH_OPTIMIZED_TABLE_SHA256 = (
    "de013c0ad0e703066a116ee27ff2bd29fef556971f541eaf2cb218275bf3a508"
)
BENCH_WORST_CASE_TABLE_SHA256 = (
    "bd7fd271a3c91e11b87ebfd7ce2211bdbaf4392586ecb062241619971f74e161"
)
TABLE_LEVELS = 14
TASK_LABEL = f"store[rmax:{TEST.cooldown}:48]"


def table_digest(entries) -> str:
    digest = hashlib.sha256()
    for entry in entries:
        for field in dataclasses.fields(RateEntry):
            value = getattr(entry, field.name)
            digest.update(float(value).hex().encode() + b";")
        digest.update(b"\n")
    return digest.hexdigest()


class TestTableBits:
    @pytest.fixture(autouse=True)
    def _no_store(self, monkeypatch):
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        clear_active_store()
        clear_rate_table_cache()
        yield
        clear_rate_table_cache()

    def test_optimized_table(self):
        table = populate_rate_table(TEST.cooldown)
        assert len(table.entries()) == TABLE_LEVELS
        assert table_digest(table.entries()) == OPTIMIZED_TABLE_SHA256

    def test_worst_case_table(self):
        table = populate_rate_table(TEST.cooldown, capacity=1, worst_case=True)
        assert table_digest(table.entries()) == WORST_CASE_TABLE_SHA256

    def test_bench_optimized_table(self):
        table = populate_rate_table(BENCH.cooldown)
        assert len(table.entries()) == TABLE_LEVELS
        assert table_digest(table.entries()) == BENCH_OPTIMIZED_TABLE_SHA256

    def test_bench_worst_case_table(self):
        table = populate_rate_table(BENCH.cooldown, capacity=1, worst_case=True)
        assert table_digest(table.entries()) == BENCH_WORST_CASE_TABLE_SHA256


def solo_entry(table: RmaxTable, level: int) -> RateEntry:
    """One level of ``table`` solved alone, as the table would seed it."""
    cooldown = (level + 1) * table.cooldown
    result = solve_rmax(
        table.base_model.with_cooldown(cooldown), inner_iterations=300, seed=level
    )
    return RateEntry(
        maintains=level,
        effective_cooldown=cooldown,
        rate=result.rate,
        rate_upper_bound=result.rate_upper_bound,
        bits_per_transmission=result.bits_per_transmission,
        average_transmission_time=result.average_transmission_time,
    )


class TestLockStep:
    """A table solves its levels together, with each level's solo bits."""

    @pytest.mark.parametrize("cooldown", [TEST.cooldown, BENCH.cooldown])
    @pytest.mark.parametrize("capacity", [1, 2, 9, 48])
    def test_equals_levels_solved_one_at_a_time(self, cooldown, capacity):
        table = RmaxTable(default_channel_model(cooldown), capacity=capacity)
        before = _M_SOLVES.value
        entries = table.entries()
        assert _M_SOLVES.value - before == len(table.levels)
        assert entries == [solo_entry(table, level) for level in table.levels]

    def test_partly_filled_table_solves_only_the_rest(self):
        base = default_channel_model(BENCH.cooldown)
        table = RmaxTable(base, capacity=48)
        # ``preload`` adopts whole tables only, so lazy reads fill a few
        # levels one at a time first.
        filled = {level: table.entry(level) for level in (0, 5, 18)}
        before = _M_SOLVES.value
        entries = table.entries()
        assert _M_SOLVES.value - before == len(table.levels) - len(filled)
        assert entries == [solo_entry(table, level) for level in table.levels]
        assert all(table.entry(level) is entry for level, entry in filled.items())

        preloaded = RmaxTable(base, capacity=48)
        assert preloaded.preload(entries)
        before = _M_SOLVES.value
        assert preloaded.entries() == entries
        assert _M_SOLVES.value == before


class TestUnsolvedTables:
    @pytest.fixture(autouse=True)
    def _clean(self):
        clear_active_store()
        clear_rate_table_cache()
        yield
        clear_active_store()
        clear_rate_table_cache()

    def test_nothing_unsolved_is_memoized(self):
        before = store_stats_snapshot()
        with unsolved_rate_tables():
            table = get_rate_table(64, capacity=2)
        assert not untangle._RATE_TABLES
        assert "rmax_solves" not in store_stats_delta(before, store_stats_snapshot())
        # Outside the block the table is solved and memoized as usual.
        assert get_rate_table(64, capacity=2) is not table
        assert len(untangle._RATE_TABLES) == 1

    def test_load_never_solves(self, tmp_path):
        set_active_store(PrecomputeStore(tmp_path))
        before = store_stats_snapshot()
        assert not load_rate_table(64, capacity=2)
        assert not untangle._RATE_TABLES
        assert store_stats_delta(before, store_stats_snapshot()) == {}
        solved = populate_rate_table(64, capacity=2)
        clear_rate_table_cache()
        assert load_rate_table(64, capacity=2)
        assert get_rate_table(64, capacity=2).entries() == solved.entries()


@dataclasses.dataclass
class Run:
    stdout: str
    stderr: str
    events: list[dict]
    solves: int
    cache_dir: Path

    def named(self, name: str) -> list[dict]:
        return [e for e in self.events if e["name"] == name]

    def stored_tables(self) -> list[list[RateEntry]]:
        tables = []
        for path in sorted((self.cache_dir / "store" / "rmax").glob("*.json")):
            payload = json.loads(path.read_text())
            tables.append([RateEntry(**e) for e in payload["entries"]])
        return tables


def run_table6(tmp_path: Path, name: str, *options: str, **env: str) -> Run:
    workdir = tmp_path / name
    workdir.mkdir()
    trace = workdir / "trace.jsonl"
    metrics = workdir / "metrics.prom"
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    child_env.update(env)
    child_env["PYTHONPATH"] = str(ROOT / "src")
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "--profile", "test",
            "--cache-dir", str(workdir / "cache"), "--telemetry",
            "--trace", str(trace), "--metrics-out", str(metrics),
            *options, "table6",
        ],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    solves = re.search(
        r"^repro_rmax_solves_total (\S+)$", metrics.read_text(), re.MULTILINE
    )
    return Run(
        stdout=result.stdout,
        stderr=result.stderr,
        events=[json.loads(line) for line in trace.read_text().splitlines()],
        solves=int(float(solves.group(1))) if solves else 0,
        cache_dir=workdir / "cache",
    )


@pytest.fixture(scope="module")
def serial(tmp_path_factory) -> Run:
    return run_table6(tmp_path_factory.mktemp("serial"), "serial", "--jobs", "1")


@pytest.fixture(scope="module")
def pooled(tmp_path_factory) -> Run:
    return run_table6(tmp_path_factory.mktemp("pooled"), "pooled", "--jobs", "2")


def _start(event: dict) -> float:
    return event.get("t0", event.get("t"))


class TestWorkerSolve:
    def test_output_identical_to_serial(self, serial, pooled):
        assert pooled.stdout == serial.stdout
        assert serial.solves == TABLE_LEVELS
        assert not serial.named("store.dispatch")

    def test_one_solve_per_level(self, pooled):
        assert pooled.solves == TABLE_LEVELS

    def test_table_round_trips_the_store_bit_exactly(self, pooled):
        (stored,) = pooled.stored_tables()
        assert table_digest(stored) == OPTIMIZED_TABLE_SHA256

    def test_the_solve_runs_on_a_worker(self, pooled):
        parent = pooled.named("engine.run")[0]["pid"]
        (dispatch,) = pooled.named("store.dispatch")
        assert dispatch["attrs"]["label"] == TASK_LABEL
        solve = [
            span for span in pooled.named("store.populate")
            if span["attrs"].get("label") == TASK_LABEL
        ]
        assert len(solve) == 1 and solve[0]["pid"] != parent
        assert len(pooled.named("store.ready")) == 1

    def test_no_untangle_dispatch_before_the_table_is_stored(self, pooled):
        (solve,) = [
            span for span in pooled.named("store.populate")
            if span["attrs"].get("label") == TASK_LABEL
        ]
        (ready,) = pooled.named("store.ready")
        untangle = [
            event for event in pooled.named("cell.dispatch")
            if event["attrs"]["label"].endswith("/untangle")
        ]
        assert untangle
        assert all(_start(event) >= solve["t1"] for event in untangle)
        assert all(_start(event) >= _start(ready) for event in untangle)

    def test_table_free_cell_overlaps_the_solve(self, pooled):
        (solve,) = [
            span for span in pooled.named("store.populate")
            if span["attrs"].get("label") == TASK_LABEL
        ]
        overlapping = [
            span for span in pooled.named("cell.compute")
            if span["pid"] != solve["pid"]
            and span["t0"] < solve["t1"]
            and span["t1"] > solve["t0"]
        ]
        assert overlapping
        assert not any(
            span["attrs"]["label"].endswith("/untangle") for span in overlapping
        )


class TestSolveTaskFaults:
    def test_one_crash_retries_and_output_is_identical(self, tmp_path, serial):
        run = run_table6(
            tmp_path, "crash", "--jobs", "2", REPRO_FAULTS=f"crash={TASK_LABEL}"
        )
        assert run.stdout == serial.stdout
        crashes = run.named("worker.crash")
        assert [c["attrs"]["label"] for c in crashes] == [TASK_LABEL]
        assert len(run.named("store.retry")) == 1
        assert len(run.named("store.ready")) == 1
        assert run.solves == TABLE_LEVELS
        assert "cells:        12 (0 cache hits, 12 simulated, 0 failed)" in run.stderr

    def test_poisoned_task_releases_the_cells(self, tmp_path, serial):
        run = run_table6(
            tmp_path, "poison", "--jobs", "2", REPRO_FAULTS=f"poison={TASK_LABEL}"
        )
        assert run.stdout == serial.stdout
        assert len(run.named("store.failed")) == 1
        assert not run.named("store.ready")
        # Each worker that drew an Untangle cell solved on its own miss.
        assert run.solves in (TABLE_LEVELS, 2 * TABLE_LEVELS)
        assert "cells:        12 (0 cache hits, 12 simulated, 0 failed)" in run.stderr


class TestParentSolve:
    """Without a working store the table is solved once, in the parent.

    The in-process runs show *where*: the engine's own process ends up
    holding the solved table, and the workers (forked after it) add no
    solve of their own.
    """

    @pytest.fixture()
    def cells(self):
        clear_active_store()
        clear_rate_table_cache()
        pairs = tuple(get_mix(1))
        yield [
            MixSchemeCell(pairs=pairs, scheme=scheme, profile=TEST)
            for scheme in ("untangle", "static")
        ]
        clear_active_store()
        clear_rate_table_cache()

    @pytest.mark.parametrize("degraded", [False, True])
    def test_in_the_parent(self, cells, tmp_path, degraded):
        engine = ExecutionEngine(
            jobs=2,
            store=PrecomputeStore(tmp_path / "store") if degraded else None,
            faults=FaultPlan(
                io_error_subsystems=("store",), state_dir=str(tmp_path / "f")
            )
            if degraded
            else None,
        )
        outcomes = engine.run(cells)
        assert [o.status for o in outcomes] == ["computed", "computed"]
        assert ("store" in engine.telemetry.degraded) is degraded
        assert engine.telemetry.rmax_solves == TABLE_LEVELS
        (table,) = untangle._RATE_TABLES.values()
        assert table_digest(table.entries()) == OPTIMIZED_TABLE_SHA256

    def test_precompute_off(self, tmp_path, serial):
        run = run_table6(tmp_path, "off", "--jobs", "2", REPRO_PRECOMPUTE="0")
        assert run.stdout == serial.stdout
        assert run.solves == TABLE_LEVELS
        assert not run.named("store.dispatch")

    def test_store_io_error(self, tmp_path, serial):
        run = run_table6(
            tmp_path, "io", "--jobs", "2", REPRO_FAULTS="io-error=store"
        )
        assert run.stdout == serial.stdout
        assert "degraded:     store" in run.stderr
        assert run.solves == TABLE_LEVELS
        assert not run.named("store.dispatch")
