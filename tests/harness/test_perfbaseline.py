"""Tests for the kernel perf-regression checker."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.perfbaseline import compare, load_bench, main


def payload(raw_speedup=4.0, cells=None, fmt=1):
    cells = cells if cells is not None else {"static": 3.0, "untangle": 4.5}
    return {
        "format": fmt,
        "quick": False,
        "reps": 3,
        "raw_kernel": {"speedup": raw_speedup},
        "end_to_end": {
            "cells": {
                scheme: {
                    "reference_seconds": speedup,
                    "batched_seconds": 1.0,
                    "speedup": speedup,
                    "identical": True,
                }
                for scheme, speedup in cells.items()
            }
        },
    }


def overhead_payload(speedup=6.0, identical=True):
    return {
        "format": 1,
        "kind": "overhead",
        "quick": False,
        "reps": 3,
        "off": {"seconds": 0.1, "cells_per_sec": 20000.0},
        "percell": {
            "seconds": 2.0,
            "cells_per_sec": 1000.0,
            "warm_seconds": 1.0,
            "identical": identical,
        },
        "grouped": {
            "seconds": 2.0 / speedup,
            "cells_per_sec": 1000.0 * speedup,
            "speedup": speedup,
            "warm_seconds": 0.5,
            "identical": identical,
        },
    }


class TestCompare:
    def test_no_regression_when_equal(self):
        assert compare(payload(), payload()) == []

    def test_faster_is_never_a_regression(self):
        current = payload(raw_speedup=8.0, cells={"static": 9.0, "untangle": 9.0})
        assert compare(current, payload()) == []

    def test_loss_within_tolerance_passes(self):
        current = payload(cells={"static": 3.0 * 0.75, "untangle": 4.5})
        assert compare(current, payload(), tolerance=0.30) == []

    def test_loss_beyond_tolerance_is_flagged(self):
        current = payload(cells={"static": 3.0 * 0.5, "untangle": 4.5})
        regressions = compare(current, payload(), tolerance=0.30)
        assert [r.measurement for r in regressions] == ["end_to_end/static"]
        assert regressions[0].loss == pytest.approx(0.5)
        assert "below the baseline" in str(regressions[0])

    def test_raw_kernel_regression_is_flagged(self):
        current = payload(raw_speedup=1.0)
        regressions = compare(current, payload(), tolerance=0.30)
        assert [r.measurement for r in regressions] == ["raw_kernel"]

    def test_non_identical_results_outrank_timing(self):
        current = payload()
        current["end_to_end"]["cells"]["static"]["identical"] = False
        regressions = compare(current, payload())
        assert any("non-identical" in str(r) for r in regressions)

    def test_schemes_only_in_one_payload_are_skipped(self):
        baseline = payload(cells={"static": 3.0, "retired_scheme": 99.0})
        current = payload(cells={"static": 3.0, "new_scheme": 0.1})
        assert compare(current, baseline) == []

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            compare(payload(), payload(), tolerance=1.5)

    def test_overhead_kind_compares_its_own_measurements(self):
        assert compare(overhead_payload(), overhead_payload()) == []
        regressions = compare(
            overhead_payload(speedup=2.0), overhead_payload(), tolerance=0.30
        )
        assert [r.measurement for r in regressions] == ["overhead/fastpath"]

    def test_overhead_warm_time_is_not_gated(self):
        # Both arms read the same packed cache, so their warm ratio is
        # not a measurement; a baseline that still records one (from
        # when the per-cell arm read per-file entries) is ignored.
        baseline = overhead_payload()
        baseline["grouped"]["warm_speedup"] = 3.6
        current = overhead_payload()
        current["grouped"]["warm_seconds"] = 50.0
        assert compare(current, baseline) == []

    def test_overhead_identity_failure_outranks_timing(self):
        current = overhead_payload(identical=False)
        regressions = compare(current, overhead_payload())
        assert any(r.measurement == "overhead/grouped" for r in regressions)
        assert any("non-identical" in str(r) for r in regressions)

    def test_cross_kind_comparison_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot compare"):
            compare(overhead_payload(), payload())
        store = {"format": 1, "kind": "store"}
        with pytest.raises(ConfigurationError, match="cannot compare"):
            compare(store, overhead_payload())


class TestLoadBench:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload()))
        assert load_bench(path)["raw_kernel"]["speedup"] == 4.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_bench(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{truncated")
        with pytest.raises(ConfigurationError, match="not JSON"):
            load_bench(path)

    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload(fmt=99)))
        with pytest.raises(ConfigurationError, match="format"):
            load_bench(path)


class TestCli:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    def test_pass_exit_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", payload())
        cur = self._write(tmp_path, "cur.json", payload())
        assert main(["--baseline", str(base), "--current", str(cur)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", payload())
        cur = self._write(
            tmp_path, "cur.json", payload(cells={"static": 0.9, "untangle": 4.5})
        )
        assert main(["--baseline", str(base), "--current", str(cur)]) == 1
        assert "REGRESSION" in capsys.readouterr().err
