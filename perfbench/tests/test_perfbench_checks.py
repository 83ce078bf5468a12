"""Output checks of the benchmark: telemetry parsing, digests, shapes."""

import hashlib
import subprocess
import time
from pathlib import Path

import pytest

import measure
import workloads as wl

COLD_TABLE6 = """\
[exec 12/12] mix[...]/static status=computed wall=1.89s cycles=1028000
Execution telemetry
  cells:        12 (0 cache hits, 12 simulated, 0 failed)
  retries:      0
  cycles:       10,340,000 simulated
  cell time:    23.12s across cells
  wall clock:   13.02s
  cell seconds: p50=2.007s p90=2.593s p99=2.593s (streaming sketch)
  speedup:      1.78x (cell time / wall clock)
  scheduling:   12 chunks dispatched (1.0 cells/chunk), 1 steals
  store:        traces 96 hits / 19 misses (0 B zero-copy), rmax 0 hits / 1 misses
"""

WARM_SENSITIVITY = """\
Execution telemetry
  cells:        324 (324 cache hits, 0 simulated, 0 failed)
  retries:      0
"""

RESUMED = """\
Execution telemetry
  cells:        12 (5 journal replays, 0 cache hits, 6 simulated, 1 failed (1 poisoned))
"""

SCENARIO = b"""\
Scenario 'table6-seed1'
=======================
scenario[table6-seed1]  (profile: bench)
----------------------------------------
mix                    static             time         untangle
mix 1                  1.000x           1.457x           1.313x
mix 2                  1.000x           1.406x           1.319x
mix 3                  1.000x           1.703x           1.484x
mix 4                  1.000x           1.826x           1.555x

(columns: geomean IPC speedup over the static column; ipc=mean raw IPC when the scenario has no static baseline)
"""


class TestParseTelemetry:
    def test_cold_block(self):
        t = measure.parse_telemetry(COLD_TABLE6)
        assert t == measure.Telemetry(
            total=12, hit=0, computed=12, replayed=0, failed=0, chunks=12, steals=1
        )

    def test_warm_block_without_scheduling_line(self):
        t = measure.parse_telemetry(WARM_SENSITIVITY)
        assert (t.total, t.hit, t.computed, t.chunks, t.steals) == (324, 324, 0, 0, 0)

    def test_replays_and_poisoned(self):
        t = measure.parse_telemetry(RESUMED)
        assert (t.replayed, t.hit, t.computed, t.failed) == (5, 0, 6, 1)

    def test_last_block_wins(self):
        t = measure.parse_telemetry(COLD_TABLE6 + WARM_SENSITIVITY)
        assert t.total == 324

    def test_missing_block(self):
        assert measure.parse_telemetry("Traceback (most recent call last):") is None


class TestTelemetryProblems:
    def test_cold_run_passes(self):
        t = measure.parse_telemetry(COLD_TABLE6)
        assert measure.telemetry_problems(t, 12, cold=True) == []

    def test_warm_run_passes(self):
        t = measure.parse_telemetry(WARM_SENSITIVITY)
        assert measure.telemetry_problems(t, 324, cold=False) == []

    def test_invariant_broken(self):
        t = measure.Telemetry(12, 0, 11, 0, 0, 12, 0)
        problems = measure.telemetry_problems(t, 12, cold=True)
        assert any("invariant" in p for p in problems)

    def test_failed_cells_and_replays_flagged(self):
        t = measure.parse_telemetry(RESUMED)
        problems = measure.telemetry_problems(t, 12, cold=True)
        assert any("1 failed cells" in p for p in problems)
        assert any("reused" in p for p in problems)

    def test_warm_replay_that_simulates_is_flagged(self):
        t = measure.Telemetry(336, 335, 1, 0, 0, 1, 0)
        assert measure.telemetry_problems(t, 336, cold=False)

    def test_wrong_cell_count(self):
        t = measure.parse_telemetry(COLD_TABLE6)
        assert measure.telemetry_problems(t, 324, cold=True) == [
            "12 cells, expected 324"
        ]

    def test_no_block(self):
        assert measure.telemetry_problems(None, 12, cold=True)


class TestDigest:
    def test_match(self):
        data = b"Table 6\n"
        assert measure.digest_problems(data, hashlib.sha256(data).hexdigest()) == []

    def test_mismatch(self):
        assert measure.digest_problems(b"changed\n", wl.TABLE6_DIGEST)


class TestScenarioShape:
    def test_rendering_passes(self):
        assert measure.scenario_problems(SCENARIO) == []

    def test_missing_mix_row(self):
        broken = SCENARIO.replace(b"mix 4                  1.000x", b"")
        assert measure.scenario_problems(broken)

    def test_static_column_must_be_baseline(self):
        broken = SCENARIO.replace(b"mix 2                  1.000x", b"mix 2                  1.100x")
        assert measure.scenario_problems(broken)


def test_leak_reduction_parse():
    stdout = b"Average per-assessment leakage reduction: 89% (paper: 78%)\n"
    assert measure.parse_leak_reduction(stdout) == 89.0
    assert measure.parse_leak_reduction(SCENARIO) is None


class TestWorkloads:
    def test_paper_seed_runs_the_pinned_command(self):
        command = wl.table6_command(wl.PAPER_SEED)
        assert command.digest == wl.TABLE6_DIGEST and command.spec is None
        argv = command.argv("cache", None)
        assert argv[-1] == "table6" and argv[:2] == ["--profile", "bench"]

    def test_other_seed_runs_a_generated_spec(self, tmp_path):
        command = wl.table6_command(7)
        assert command.digest is None
        assert command.spec["scenario"]["profile_overrides"] == {"seed": 7}
        path = command.write_spec(tmp_path)
        assert command.argv(tmp_path, path)[-2:] == ["scenario", str(path)]

    def test_cell_counts(self):
        assert [wl.make_workload(n, 1).cells for n in wl.WORKLOAD_NAMES] == [12, 324, 336]

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            wl.make_workload("nope", 1)


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 2.0, 5.0, 4.0, 6.0, 8.0, 7.0, 9.0, 10.0]
    q1, q2, q3 = measure.quartiles(values)
    assert q2 == 5.5
    assert measure.spread(values) == pytest.approx((q3 - q1) / 5.5)


class TestHostScale:
    def test_reference_probe_scales_by_one(self):
        assert measure.host_scale([measure.REFERENCE_PROBE_S]) == pytest.approx(1.0)

    def test_slow_host_scales_down(self):
        ref = measure.REFERENCE_PROBE_S
        assert measure.host_scale([ref, 3 * ref]) == pytest.approx(0.5)

    def test_probe_pauses_the_group_and_lets_it_continue(self, monkeypatch):
        monkeypatch.setattr(measure, "PROBE_PERIOD_S", 0.01)
        child = subprocess.Popen(["sleep", "5"], start_new_session=True)
        try:
            with measure.HostProbe(child.pid) as probe:
                time.sleep(0.1)
            assert len(probe.samples) >= 2 and all(s > 0 for s in probe.samples)
            assert not probe._thread.is_alive()
            assert len(probe.pauses) == len(probe.samples)
            state = Path(f"/proc/{child.pid}/stat").read_text().split(")")[1].split()[0]
            assert state != "T"
        finally:
            child.kill()
            child.wait()

    def test_probe_of_a_finished_group_records_no_pause(self):
        child = subprocess.Popen(["true"], start_new_session=True)
        child.wait()
        with measure.HostProbe(child.pid) as probe:
            pass
        assert len(probe.samples) == 1 and probe.pauses == []

    def test_paused_time_is_clipped_at_the_end(self):
        probe = measure.HostProbe(0)
        probe.pauses = [(1.0, 1.5), (2.0, 3.0), (4.0, 5.0)]
        assert probe.paused_before(2.5) == pytest.approx(1.0)


def test_end_to_end_metrics_scale_times_by_the_run_probe():
    import run

    ref = measure.REFERENCE_PROBE_S
    fast = [ref / 2] * 3  # host twice the reference speed
    iterations = [
        run.Iteration("a", wall_s=10.0, cpu_s=18.0, peak_rss_mb=60.0, probes=fast),
        run.Iteration("b", wall_s=12.0, cpu_s=20.0, peak_rss_mb=62.0, probes=fast),
        run.Iteration("c", wall_s=11.0, cpu_s=22.0, peak_rss_mb=64.0, probes=fast),
    ]
    setup = [
        measure.ChildRun(0, wall, 0.0, 0.0, 0.0, 0.0, 0.0, b"", "", probes=[ref])
        for wall in (0.4, 0.5, 0.6)
    ]
    m = {k: v for k, (v, _) in run.end_to_end_metrics(iterations, setup, 12).items()}
    assert m["wall_s"] == pytest.approx(22.0)
    assert m["cpu_s"] == pytest.approx(40.0)
    assert m["cells_per_s"] == pytest.approx(12 / 22.0)
    assert m["peak_rss_mb"] == 62.0
    assert m["setup_s"] == pytest.approx(0.5)


def test_unscaled_metrics_are_the_raw_medians_and_scales():
    import run

    ref = measure.REFERENCE_PROBE_S
    iterations = [
        run.Iteration("a", wall_s=10.0, cpu_s=18.0, probes=[ref / 2]),
        run.Iteration("b", wall_s=12.0, cpu_s=20.0, probes=[ref / 2]),
    ]
    setup = [measure.ChildRun(0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, b"", "", probes=[ref])]
    m = {k: v for k, (v, _) in run.unscaled_metrics(iterations, setup).items()}
    assert m == {
        "unscaled.wall_s": 11.0,
        "unscaled.cpu_s": 19.0,
        "unscaled.setup_s": 0.4,
        "probe.scale": pytest.approx(2.0),
        "probe.setup_scale": pytest.approx(1.0),
    }


def test_each_iteration_is_scaled_by_its_own_probes():
    import run

    ref = measure.REFERENCE_PROBE_S
    iterations = [
        run.Iteration("fast host", wall_s=5.0, cpu_s=9.0, probes=[ref / 2, ref / 2]),
        run.Iteration("reference host", wall_s=10.0, cpu_s=18.0, probes=[ref]),
        run.Iteration("mixed", wall_s=15.0, cpu_s=27.0, probes=[ref, 2 * ref]),
    ]
    setup = [measure.ChildRun(0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, b"", "", probes=[ref])]
    m = {k: v for k, (v, _) in run.end_to_end_metrics(iterations, setup, 12).items()}
    assert m["wall_s"] == pytest.approx(10.0)
    assert m["cpu_s"] == pytest.approx(18.0)
