"""Tests for the cross-cell precompute store (traces + Rmax artifacts).

The guarantees the campaign path depends on:

* **Bit-identity** — arrays served from the store's mmap'd ``.npy``
  files and Rmax entries round-tripped through the JSON artifact are
  byte-for-byte what the legacy build path produces, for any
  ``(spec, crypto, scale, seed, secret)``.
* **Cross-process reattach** — a process with *no inherited Python
  state* (the spawn / respawned-worker case) resolves the same store
  from the environment and attaches without rebuilding.
* **Teardown** — the store's attachments are released and the active
  store cleared on every engine exit path, the SIGINT path included.
* **Integrity** — corrupt artifacts are quarantined (``*.corrupt``) and
  recomputed, never trusted or silently re-read.
* **Accounting** — a warm campaign reports zero workload compositions
  and zero Dinkelbach solves in telemetry, identically for serial and
  parallel engines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignInterrupted, ConfigurationError
from repro.harness.exec import (
    EngineTelemetry,
    ExecutionEngine,
    MixSchemeCell,
    engine_from_env,
)
from repro.harness.faults import FaultPlan
from repro.harness.report import render_telemetry
from repro.harness.runconfig import TEST
from repro.harness.sensitivity import build_spec_only_stream_direct
from repro.harness.store import (
    PRECOMPUTE_ENV,
    STORE_DIR_ENV,
    PrecomputeStore,
    cached_build_workload,
    cached_spec_stream,
    clear_active_store,
    ensure_workload_trace,
    get_active_store,
    rmax_token,
    set_active_store,
    store_digest,
    store_stats_delta,
    store_stats_snapshot,
    workload_token,
)
from repro.schemes.untangle import (
    clear_rate_table_cache,
    default_channel_model,
    get_rate_table,
    get_worst_case_rate_table,
    populate_rate_table,
)
from repro.workloads.workload import (
    WorkloadScale,
    build_workload,
    compose_workload_arrays,
)

SPEC, CRYPTO = "gcc_2", "AES-128"
SCALE = WorkloadScale.test()
CHILD = Path(__file__).with_name("_store_child.py")


@pytest.fixture(autouse=True)
def _clean_store_state(monkeypatch):
    """Every test starts with no active store, no env overrides, and an
    empty rate-table memoizer (both are process-global)."""
    for name in (PRECOMPUTE_ENV, STORE_DIR_ENV):
        monkeypatch.delenv(name, raising=False)
    clear_active_store()
    clear_rate_table_cache()
    yield
    clear_active_store()
    clear_rate_table_cache()


def arrays_checksum(arrays: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


def assert_arrays_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]):
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert np.array_equal(np.asarray(a[name]), np.asarray(b[name])), name


# ----------------------------------------------------------------------
# Tokens / key schema
# ----------------------------------------------------------------------
class TestTokens:
    def test_workload_token_json_round_trips_to_itself(self):
        token = workload_token(SPEC, CRYPTO, SCALE, 3, 1)
        assert json.loads(json.dumps(token)) == token

    def test_rmax_token_json_round_trips_to_itself(self):
        # Regression: the delay histogram must serialize as lists, not
        # tuples — the stored artifact compares its token against ours
        # after a JSON round-trip, and tuples would quarantine every
        # warm reload.
        model = default_channel_model(64)
        token = rmax_token(model, 4, 150, 0)
        assert json.loads(json.dumps(token)) == token

    def test_digest_sensitive_to_every_field(self):
        base = workload_token(SPEC, CRYPTO, SCALE, 0, 0)
        variants = [
            workload_token("xz_0", CRYPTO, SCALE, 0, 0),
            workload_token(SPEC, "SHA-256", SCALE, 0, 0),
            workload_token(SPEC, CRYPTO, WorkloadScale(), 0, 0),
            workload_token(SPEC, CRYPTO, SCALE, 1, 0),
            workload_token(SPEC, CRYPTO, SCALE, 0, 1),
        ]
        digests = {store_digest(base)} | {store_digest(v) for v in variants}
        assert len(digests) == len(variants) + 1

    def test_timing_jitter_not_part_of_trace_identity(self):
        # Jitter perturbs the assembled core model, never the composed
        # arrays — two jitter settings must share one stored trace.
        token = workload_token(SPEC, CRYPTO, SCALE, 0, 0)
        assert "timing_jitter" not in json.dumps(token)


# ----------------------------------------------------------------------
# compose/assemble split + store round-trips
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_store_path_matches_direct_build(self, tmp_path):
        direct = build_workload(SPEC, CRYPTO, SCALE, seed=2, secret=1)
        set_active_store(PrecomputeStore(tmp_path))
        via_store = cached_build_workload(SPEC, CRYPTO, SCALE, seed=2, secret=1)
        assert np.array_equal(direct.stream.addresses, via_store.stream.addresses)
        assert np.array_equal(
            direct.stream.annotations.metric_excluded,
            via_store.stream.annotations.metric_excluded,
        )
        assert np.array_equal(
            direct.stream.annotations.progress_excluded,
            via_store.stream.annotations.progress_excluded,
        )
        assert direct.core_config == via_store.core_config
        assert direct.label == via_store.label

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 5), secret=st.integers(0, 3))
    def test_file_backend_round_trip_any_inputs(self, seed, secret):
        import tempfile

        built = compose_workload_arrays(SPEC, CRYPTO, SCALE, seed=seed, secret=secret)
        token = workload_token(SPEC, CRYPTO, SCALE, seed, secret)
        with tempfile.TemporaryDirectory() as root:
            PrecomputeStore(root).trace_arrays(token, lambda: built)
            # A fresh store instance reads back from disk, not from the
            # attach cache.
            reloaded = PrecomputeStore(root).trace_arrays(
                token, lambda: pytest.fail("must not rebuild on a warm store")
            )
            assert_arrays_equal(built, reloaded)

    def test_spec_stream_store_path_matches_direct(self, tmp_path):
        from repro.workloads.spec import SPEC_BENCHMARKS

        benchmark = SPEC_BENCHMARKS[SPEC]
        direct = build_spec_only_stream_direct(
            benchmark, SCALE.spec_instructions, SCALE.lines_per_mb, 7
        )
        set_active_store(PrecomputeStore(tmp_path))
        via_store = cached_spec_stream(
            benchmark, SCALE.spec_instructions, SCALE.lines_per_mb, 7
        )
        assert np.array_equal(direct.addresses, via_store.addresses)
        assert direct.length == via_store.length

    def test_no_store_is_the_legacy_path(self):
        direct = build_workload(SPEC, CRYPTO, SCALE, seed=1)
        assert get_active_store() is None
        legacy = cached_build_workload(SPEC, CRYPTO, SCALE, seed=1)
        assert np.array_equal(direct.stream.addresses, legacy.stream.addresses)


def _run_child(env_overrides: dict[str, str]) -> dict:
    env = dict(os.environ)
    for name in (PRECOMPUTE_ENV, STORE_DIR_ENV):
        env.pop(name, None)
    env.update(env_overrides)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    result = subprocess.run(
        [sys.executable, str(CHILD), SPEC, CRYPTO, "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestSpawnReattachFile:
    def test_spawned_process_reattaches_by_directory(self, tmp_path):
        store = PrecomputeStore(tmp_path / "store")
        built = ensure_workload_trace(store, SPEC, CRYPTO, SCALE, 0)
        report = _run_child({STORE_DIR_ENV: str(tmp_path / "store")})
        assert report["sha256"] == arrays_checksum(built)
        assert report["hits"] == 1 and report["misses"] == 0
        assert report["builds"] == 0


# ----------------------------------------------------------------------
# Corruption / quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_corrupt_trace_array_quarantined_and_rebuilt(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        token = workload_token(SPEC, CRYPTO, SCALE, 0, 0)
        original = store.trace_arrays(
            token, lambda: compose_workload_arrays(SPEC, CRYPTO, SCALE, seed=0)
        )
        original = {k: np.asarray(v).copy() for k, v in original.items()}
        # A *valid* npy with wrong data: only the checksum check catches it.
        victim = next((tmp_path / "traces").rglob("addresses.npy"))
        np.save(victim, np.zeros(4, dtype=np.int64))

        before = store_stats_snapshot()
        fresh = PrecomputeStore(tmp_path)
        rebuilt = fresh.trace_arrays(
            token, lambda: compose_workload_arrays(SPEC, CRYPTO, SCALE, seed=0)
        )
        delta = store_stats_delta(before, store_stats_snapshot())
        assert_arrays_equal(original, rebuilt)
        assert delta["store_quarantined_trace"] == 1
        assert delta["store_trace_misses"] == 1
        assert delta["workload_builds"] == 1
        assert list((tmp_path / "traces").rglob("*.corrupt"))

    def test_garbled_meta_quarantined(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        token = workload_token(SPEC, CRYPTO, SCALE, 0, 0)
        store.trace_arrays(
            token, lambda: compose_workload_arrays(SPEC, CRYPTO, SCALE, seed=0)
        )
        next((tmp_path / "traces").rglob("meta.json")).write_text("{not json")
        rebuilt = PrecomputeStore(tmp_path).trace_arrays(
            token, lambda: compose_workload_arrays(SPEC, CRYPTO, SCALE, seed=0)
        )
        assert rebuilt["addresses"].shape[0] > 0
        assert list((tmp_path / "traces").rglob("*.corrupt"))

    def test_corrupt_rmax_artifact_quarantined_and_recomputed(self, tmp_path):
        set_active_store(PrecomputeStore(tmp_path))
        first = get_rate_table(64, capacity=2).entries()
        artifact = next((tmp_path / "rmax").glob("*.json"))
        artifact.write_text(artifact.read_text().replace('"entries"', '"entr"'))

        clear_rate_table_cache()
        set_active_store(PrecomputeStore(tmp_path))
        before = store_stats_snapshot()
        second = get_rate_table(64, capacity=2).entries()
        delta = store_stats_delta(before, store_stats_snapshot())
        assert second == first  # exact: same solver, same seed
        assert delta["store_quarantined_rmax"] == 1
        assert delta["rmax_solves"] == len(first)
        assert list((tmp_path / "rmax").glob("*.corrupt"))


# ----------------------------------------------------------------------
# Rate-table memoizer + artifact
# ----------------------------------------------------------------------
class TestRateTableMemoizer:
    def test_key_normalization_shares_one_entry(self):
        a = get_rate_table(64, capacity=2)
        b = get_rate_table(64, 16, 4, 2)  # positional spelling
        assert a is b
        # A raw cooldown and the one its channel model rounds it to.
        assert get_rate_table(70, capacity=2) is get_rate_table(68, capacity=2)

    def test_worst_case_never_pollutes_optimized_cache(self):
        optimized = get_rate_table(64, capacity=2)
        worst = get_worst_case_rate_table(64)
        assert worst is not optimized
        assert worst.capacity == 1
        assert get_rate_table(64, capacity=2) is optimized
        assert get_worst_case_rate_table(64) is worst

    def test_clear_hook_drops_memo(self):
        a = get_rate_table(64, capacity=2)
        clear_rate_table_cache()
        assert get_rate_table(64, capacity=2) is not a

    def test_warm_store_skips_every_solve(self, tmp_path):
        set_active_store(PrecomputeStore(tmp_path))
        first = get_rate_table(64, capacity=2).entries()
        assert list((tmp_path / "rmax").glob("*.json"))

        clear_rate_table_cache()
        set_active_store(PrecomputeStore(tmp_path))
        before = store_stats_snapshot()
        second = get_rate_table(64, capacity=2).entries()
        delta = store_stats_delta(before, store_stats_snapshot())
        assert second == first
        assert delta.get("rmax_solves", 0) == 0
        assert delta["store_rmax_hits"] == 1

    def test_populate_worst_case_fills_the_unopt_key(self, tmp_path):
        set_active_store(PrecomputeStore(tmp_path))
        populate_rate_table(64, worst_case=True)
        before = store_stats_snapshot()
        table = get_worst_case_rate_table(64)
        delta = store_stats_delta(before, store_stats_snapshot())
        assert table.capacity == 1
        assert delta.get("rmax_solves", 0) == 0  # memo hit, no re-solve


# ----------------------------------------------------------------------
# Environment / CLI wiring
# ----------------------------------------------------------------------
class TestPrecomputeFromEnv:
    """``REPRO_PRECOMPUTE`` as the engine settings read it."""

    @pytest.fixture(autouse=True)
    def _cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def test_default_is_on(self):
        assert engine_from_env().store is not None

    @pytest.mark.parametrize("value", ["off", "0", "false", "NO"])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(PRECOMPUTE_ENV, value)
        assert engine_from_env().store is None

    @pytest.mark.parametrize("value", ["on", "1", "TRUE", "yes"])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(PRECOMPUTE_ENV, value)
        assert engine_from_env().store is not None

    def test_malformed_value_rejected_with_accepted_forms(self, monkeypatch):
        monkeypatch.setenv(PRECOMPUTE_ENV, "maybe")
        with pytest.raises(ConfigurationError) as excinfo:
            engine_from_env()
        message = str(excinfo.value)
        assert "REPRO_PRECOMPUTE" in message
        assert "'maybe'" in message  # the offending value
        assert "on" in message and "off" in message  # the accepted forms


class _ProbeCell:
    """Serial cell that records the store it sees."""

    label = "probe[store]"

    def __init__(self, observed: list):
        self.observed = observed

    def cache_token(self):
        return {"kind": "store-probe"}

    def execute(self):
        self.observed.append(get_active_store())
        return 0

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return value

    @staticmethod
    def decode(payload):
        return payload


class TestActiveStoreResolution:
    def test_explicit_activation_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env"))
        explicit = PrecomputeStore(tmp_path / "explicit")
        set_active_store(explicit)
        assert get_active_store() is explicit
        clear_active_store()
        resolved = get_active_store()
        assert resolved is not None
        assert resolved.directory == tmp_path / "env"

    def test_env_off_resolves_no_store(self, tmp_path, monkeypatch):
        """``REPRO_PRECOMPUTE=off`` beats an explicit ``REPRO_STORE_DIR``:
        the engine has no store, and its cells see none."""
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(PRECOMPUTE_ENV, "off")
        engine = engine_from_env()
        assert engine.store is None
        observed: list = []
        engine.run([_ProbeCell(observed)])
        assert observed == [None]
        assert os.environ[STORE_DIR_ENV] == str(tmp_path)


class TestEngineFromEnvStore:
    def test_store_survives_result_cache_off(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = engine_from_env()
        assert engine.cache is None
        assert engine.store is not None
        assert engine.store.directory == tmp_path / "store"

    def test_precompute_off_disables_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(PRECOMPUTE_ENV, "off")
        assert engine_from_env().store is None

    def test_explicit_store_dir_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "elsewhere"))
        engine = engine_from_env()
        assert engine.store.directory == tmp_path / "elsewhere"

    def test_no_directory_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert engine_from_env().store is None

    def test_malformed_precompute_rejected(self, monkeypatch):
        monkeypatch.setenv(PRECOMPUTE_ENV, "sometimes")
        with pytest.raises(ConfigurationError, match="REPRO_PRECOMPUTE"):
            engine_from_env()


class TestCli:
    def test_flag_disables_store_and_env_for_workers(self, tmp_path, monkeypatch):
        from repro.__main__ import build_engine, build_parser

        monkeypatch.delenv(PRECOMPUTE_ENV, raising=False)
        args = build_parser().parse_args(
            ["--cache-dir", str(tmp_path), "--no-precompute-store", "mix", "1"]
        )
        engine = build_engine(args)
        assert engine.store is None
        # Workers learn it from the engine's run, not from a variable
        # the CLI leaves behind.
        assert PRECOMPUTE_ENV not in os.environ

    def test_default_store_rides_with_cache_dir(self, tmp_path):
        from repro.__main__ import build_engine, build_parser

        args = build_parser().parse_args(["--cache-dir", str(tmp_path), "mix", "1"])
        engine = build_engine(args)
        assert engine.store is not None
        assert engine.store.directory == tmp_path / "store"

    def test_flag_wins_over_env_enable(self, monkeypatch, tmp_path):
        from repro.__main__ import build_engine, build_parser

        monkeypatch.setenv(PRECOMPUTE_ENV, "on")
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "explicit"))
        args = build_parser().parse_args(
            ["--cache-dir", str(tmp_path), "--no-precompute-store", "mix", "1"]
        )
        assert build_engine(args).store is None

    def test_main_flag_wins_over_env_enable(self, monkeypatch, capsys, tmp_path):
        from repro.__main__ import main

        monkeypatch.setenv(PRECOMPUTE_ENV, "1")
        before = dict(os.environ)
        code = main(
            [
                "--profile", "test", "--cache-dir", str(tmp_path),
                "--no-precompute-store", "mix", "1", "--schemes", "static",
            ]
        )
        assert code == 0
        assert "Mix 1" in capsys.readouterr().out
        assert not (tmp_path / "store").exists()
        assert dict(os.environ) == before


# ----------------------------------------------------------------------
# Engine integration: populate, attach, accounting, teardown
# ----------------------------------------------------------------------
PAIRS = ((SPEC, CRYPTO),)
SCHEMES = ("untangle", "static")


def _cells():
    return [
        MixSchemeCell(pairs=PAIRS, scheme=scheme, profile=TEST)
        for scheme in SCHEMES
    ]


def _encodes(outcomes):
    return [MixSchemeCell.encode(o.value) for o in outcomes]


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def baseline(self):
        """Store-less engine results (the legacy path) for identity checks."""
        clear_rate_table_cache()
        engine = ExecutionEngine(jobs=1)
        encodes = _encodes(engine.run(_cells()))
        clear_rate_table_cache()
        return encodes

    def test_cold_then_warm_campaign(self, baseline, tmp_path):
        cold = ExecutionEngine(jobs=1, store=PrecomputeStore(tmp_path / "s"))
        cold_outcomes = cold.run(_cells())
        assert _encodes(cold_outcomes) == baseline
        snap = cold.telemetry.snapshot()
        # Populate composed the one distinct trace; both cells attached.
        assert snap["workload_builds"] == 1
        assert snap["store_trace_misses"] == 1
        assert snap["store_trace_hits"] >= 2
        assert snap["rmax_solves"] > 0
        assert snap["store_rmax_misses"] == 1

        clear_rate_table_cache()
        warm = ExecutionEngine(jobs=1, store=PrecomputeStore(tmp_path / "s"))
        warm_outcomes = warm.run(_cells())
        assert _encodes(warm_outcomes) == baseline
        snap = warm.telemetry.snapshot()
        # The acceptance bar: a warm campaign regenerates nothing.
        assert snap["workload_builds"] == 0
        assert snap["rmax_solves"] == 0
        assert snap["store_trace_misses"] == 0
        assert snap["store_quarantines"] == 0
        assert snap["store_trace_hits"] >= 2
        assert snap["store_trace_bytes"] > 0
        assert snap["store_rmax_hits"] >= 1

    def test_parallel_workers_attach_and_account(self, baseline, tmp_path):
        cold = ExecutionEngine(jobs=1, store=PrecomputeStore(tmp_path / "s"))
        cold.run(_cells())
        clear_rate_table_cache()

        warm = ExecutionEngine(jobs=2, store=PrecomputeStore(tmp_path / "s"))
        outcomes = warm.run(_cells())
        assert _encodes(outcomes) == baseline
        snap = warm.telemetry.snapshot()
        # Worker deltas are shipped home: the accounting matches jobs=1.
        assert snap["workload_builds"] == 0
        assert snap["rmax_solves"] == 0
        assert snap["store_trace_misses"] == 0

    def test_store_does_not_leak_into_the_next_run(self, baseline, tmp_path):
        before = dict(os.environ)
        store = PrecomputeStore(tmp_path / "s")
        ExecutionEngine(jobs=1, store=store).run(_cells())
        assert dict(os.environ) == before
        assert get_active_store() is None
        clear_rate_table_cache()
        later = ExecutionEngine(jobs=1)
        assert _encodes(later.run(_cells())) == baseline
        snap = later.telemetry.snapshot()
        assert snap["store_trace_hits"] == 0
        assert snap["store_rmax_hits"] == 0
        assert dict(os.environ) == before

    def test_respawned_worker_reattaches_after_crash(self, baseline, tmp_path):
        state = tmp_path / "faults"
        state.mkdir()
        engine = ExecutionEngine(
            jobs=2,
            retries=1,
            store=PrecomputeStore(tmp_path / "s"),
            faults=FaultPlan(crash_cells=("untangle",), state_dir=str(state)),
        )
        outcomes = engine.run(_cells())
        assert engine.telemetry.worker_crashes == 1
        assert engine.telemetry.workers_respawned >= 1
        assert outcomes[0].status == "computed"
        assert outcomes[0].attempts == 2
        assert _encodes(outcomes) == baseline


class _InterruptCell:
    """Serial cell that populates a trace need, then simulates Ctrl-C."""

    label = "interrupt[probe]"

    def __init__(self, observed: list):
        self.observed = observed

    def cache_token(self):
        return {"kind": "interrupt-probe"}

    def store_needs(self):
        return [("trace", SPEC, CRYPTO, SCALE, 0)]

    def execute(self):
        self.observed.append(dict(get_active_store()._attached))
        raise KeyboardInterrupt

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return {}

    @staticmethod
    def decode(payload):
        return None


class TestTeardown:
    def test_sigint_path_releases_attachments(self, tmp_path):
        store = PrecomputeStore(tmp_path / "s")
        observed: list = []
        engine = ExecutionEngine(jobs=1, retries=0, store=store)
        with pytest.raises(CampaignInterrupted):
            engine.run([_InterruptCell(observed)])
        # Populate really attached the trace mid-run...
        assert observed and observed[0]
        # ...and the interrupt path released it and deactivated the
        # store, while the on-disk entry stays for the next run.
        assert store._attached == {}
        assert get_active_store() is not store
        assert STORE_DIR_ENV not in os.environ
        assert any((tmp_path / "s" / "traces").rglob("meta.json"))
        assert engine.telemetry.interrupted


# ----------------------------------------------------------------------
# Telemetry plumbing
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_snapshot_carries_store_keys(self):
        snap = EngineTelemetry().snapshot()
        for key in (
            "store_trace_hits",
            "store_trace_misses",
            "store_trace_bytes",
            "store_rmax_hits",
            "store_rmax_misses",
            "store_quarantines",
            "workload_builds",
            "rmax_solves",
        ):
            assert key in snap and snap[key] == 0

    def test_accounting_invariant_untouched_by_store_fields(self):
        telemetry = EngineTelemetry()
        telemetry.absorb_store(
            {"store_trace_hits": 3, "workload_builds": 1, "rmax_solves": 14}
        )
        snap = telemetry.snapshot()
        assert (
            snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
            == snap["total"]
        )
        assert snap["store_trace_hits"] == 3

    def test_render_telemetry_reports_store_lines(self):
        telemetry = EngineTelemetry()
        telemetry.absorb_store(
            {
                "store_trace_hits": 4,
                "store_trace_bytes": 316728,
                "store_rmax_hits": 2,
            }
        )
        text = render_telemetry(telemetry)
        assert "store:" in text
        assert "rebuilt:" in text
        assert "KiB" in text

    def test_render_telemetry_silent_without_store_activity(self):
        assert "store:" not in render_telemetry(EngineTelemetry())

    def test_quarantine_line_rendered(self):
        telemetry = EngineTelemetry()
        telemetry.absorb_store(
            {"store_trace_hits": 1, "store_quarantined_rmax": 2}
        )
        assert "store quarantined: 2" in render_telemetry(telemetry)

    def test_snapshot_delta_roundtrip(self):
        before = store_stats_snapshot()
        compose_workload_arrays(SPEC, CRYPTO, SCALE, seed=0)
        delta = store_stats_delta(before, store_stats_snapshot())
        assert delta == {"workload_builds": 1}
