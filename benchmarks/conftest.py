"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and writes
its text rendering to ``benchmarks/results/<name>.txt`` (so the output
survives pytest's capture). Mix results are cached per session because
Table 6 reuses the Figure 10 runs, exactly as the paper derives its
table from the same experiments.

All simulation cells flow through one session-wide
:class:`~repro.harness.exec.ExecutionEngine` backed by an on-disk result
cache at ``benchmarks/results/.cache``: a re-run of any benchmark driver
whose inputs (mix pairs, scheme, ``RunProfile``) are unchanged performs
zero simulations. The engine reads the same ``REPRO_*`` settings as
the CLI (README "Settings", :mod:`repro.harness.settings`), for example:

* ``REPRO_JOBS=N`` — run cells on ``N`` worker processes (``0`` = one
  per CPU; default 1, the serial fallback — results are bit-identical).
* ``REPRO_CACHE=0`` — disable the on-disk cache (and its journal).
* ``REPRO_CACHE_DIR=path`` — relocate it.
* ``REPRO_JOURNAL=off`` / ``REPRO_JOURNAL=path`` — no crash-recovery
  journal, or a journal elsewhere.
* ``REPRO_RETRIES=N`` / ``REPRO_TIMEOUT=S`` / ``REPRO_HEARTBEAT=S`` —
  per-cell retry budget, deadline and liveness beat (hung or crashed
  workers are killed and respawned).
* ``REPRO_RESUME=1`` — replay the crash-recovery journal
  (``<cache-dir>/journal.jsonl``) from an interrupted/killed session
  instead of re-simulating its completed cells.
* ``REPRO_PRECOMPUTE=0`` / ``REPRO_STORE_DIR=path`` — no precompute
  store, or a store elsewhere.
* ``REPRO_FAULTS=spec`` — inject crashes/hangs/cache corruption for
  chaos runs (see :mod:`repro.harness.faults`).

All benchmarks use ``benchmark.pedantic(..., rounds=1, iterations=1)``:
each experiment is a deterministic simulation whose *result* is the
deliverable; repeating it would only repeat identical work.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.exec import ExecutionEngine, engine_from_env
from repro.harness.experiment import MixResult, run_mix
from repro.harness.report import render_telemetry
from repro.harness.runconfig import SCALED

RESULTS_DIR = Path(__file__).parent / "results"
CACHE_DIR = RESULTS_DIR / ".cache"

#: Schemes every figure mix is run under (Table 4).
FIGURE_SCHEMES = ("static", "time", "untangle", "shared")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def engine() -> ExecutionEngine:
    """The session's execution engine (REPRO_JOBS / REPRO_CACHE aware)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    engine = engine_from_env(default_cache_dir=CACHE_DIR)
    yield engine
    if engine.telemetry.cells:
        print(f"\n{render_telemetry(engine.telemetry)}")


@pytest.fixture(scope="session")
def mix_cache(engine):
    """Session cache of mix runs keyed by (mix_id, schemes).

    Backed by the session engine, so repeated requests hit the in-memory
    dict, and cross-session re-runs hit the on-disk result cache.
    """
    cache: dict[tuple[int, tuple[str, ...]], MixResult] = {}

    def get(mix_id: int, schemes: tuple[str, ...] = FIGURE_SCHEMES) -> MixResult:
        key = (mix_id, schemes)
        if key not in cache:
            cache[key] = run_mix(mix_id, SCALED, schemes=schemes, engine=engine)
        return cache[key]

    return get


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist one rendered table/figure and echo it."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
