"""Tests for the LLC sensitivity study harness (Figure 11)."""

from dataclasses import replace

import pytest

from repro.config import ArchConfig
from repro.harness.runconfig import TEST
from repro.harness.sensitivity import (
    SensitivityCurve,
    classify_benchmarks,
    run_benchmark_at_size,
    run_sensitivity_curve,
)
from repro.sim.kernelmode import KERNEL_ENV
from repro.workloads.spec import SPEC_BENCHMARKS


class TestSensitivityCurve:
    def test_normalized_last_is_one(self):
        curve = SensitivityCurve("x", (4, 8, 16), (1.0, 2.0, 4.0))
        assert curve.normalized_ipc[-1] == pytest.approx(1.0)

    def test_adequate_size(self):
        curve = SensitivityCurve("x", (4, 8, 16), (1.0, 3.8, 4.0))
        assert curve.adequate_size_lines() == 8  # 3.8/4.0 = 0.95 >= 0.9

    def test_adequate_falls_back_to_max(self):
        curve = SensitivityCurve("x", (4, 8, 16), (1.0, 2.0, 4.0))
        assert curve.adequate_size_lines() == 16

    def test_zero_ipc_guard(self):
        curve = SensitivityCurve("x", (4, 8), (0.0, 0.0))
        assert curve.normalized_ipc == (0.0, 0.0)

    def test_classification(self):
        sensitive_curve = SensitivityCurve("big", (4, 8, 16), (0.1, 0.2, 1.0))
        insensitive_curve = SensitivityCurve("small", (4, 8, 16), (1.0, 1.0, 1.0))
        sensitive, insensitive = classify_benchmarks(
            {"big": sensitive_curve, "small": insensitive_curve},
            static_partition_lines=8,
        )
        assert sensitive == ["big"]
        assert insensitive == ["small"]


class TestMeasuredCurves:
    """Run a few real curves at the small TEST profile."""

    def test_insensitive_benchmark_is_flat(self):
        curve = run_sensitivity_curve(SPEC_BENCHMARKS["imagick_0"], TEST)
        normalized = curve.normalized_ipc
        assert min(normalized) > 0.85  # essentially flat

    def test_sensitive_benchmark_has_a_knee(self):
        curve = run_sensitivity_curve(SPEC_BENCHMARKS["parest_0"], TEST)
        normalized = curve.normalized_ipc
        assert normalized[0] < 0.6  # starved at 128 kB-equivalent
        assert normalized[-1] == pytest.approx(1.0)

    def test_monotone_up_to_noise(self):
        curve = run_sensitivity_curve(SPEC_BENCHMARKS["xz_0"], TEST)
        normalized = curve.normalized_ipc
        for earlier, later in zip(normalized, normalized[1:]):
            assert later >= earlier - 0.08


def test_fixed_partition_ipc_ignores_the_quantum(monkeypatch):
    """A lone benchmark's IPC on a fixed partition is a function of its
    stream and partition alone: the interleaving quantum and the kernel
    cannot change it (the model's claim that fixed partitions do not
    interact, and the premise of the kept-run kernel path)."""
    benchmark = SPEC_BENCHMARKS["parest_0"]
    size = ArchConfig.scaled(num_cores=1).supported_partition_lines[2]
    ipcs = {
        run_benchmark_at_size(benchmark, size, replace(TEST, quantum=quantum))
        for quantum in (125, 250, 4000)
    }
    monkeypatch.setenv(KERNEL_ENV, "reference")
    ipcs.add(run_benchmark_at_size(benchmark, size, TEST))
    assert len(ipcs) == 1
    assert ipcs.pop() > 0
