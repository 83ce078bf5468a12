"""Tests for the metrics registry (:mod:`repro.obs.metrics`)."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    METRICS_ENV,
    MetricsRegistry,
    export_metrics,
    get_registry,
    metrics_output_path,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc(self, registry):
        c = registry.counter("x_total", "things")
        c.inc()
        c.inc(2)
        assert c.value == 3

    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_labels_make_distinct_series(self, registry):
        a = registry.counter("x_total", status="ok")
        b = registry.counter("x_total", status="bad")
        assert a is not b
        a.inc()
        assert b.value == 0

    def test_set_total_never_decreases(self, registry):
        c = registry.counter("x_total")
        c.set_total(5)
        c.set_total(3)
        assert c.value == 5

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")


class TestGauge:
    def test_set_and_inc(self, registry):
        g = registry.gauge("depth")
        g.set(4.5)
        g.inc(-1.5)
        assert g.value == 3.0


class TestHistogram:
    def test_bucket_counts_are_cumulative_in_render(self, registry):
        h = registry.histogram("lat_seconds", buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 100.0):
            h.observe(value)
        lines = h.render()
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="5"} 3' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 4' in lines
        assert "lat_seconds_sum 104.2" in lines
        assert "lat_seconds_count 4" in lines

    def test_snapshot_value(self, registry):
        h = registry.histogram("lat_seconds", buckets=(1.0,))
        h.observe(0.5)
        snap = h.snapshot_value()
        assert snap["count"] == 1
        assert snap["sum"] == 0.5
        assert snap["buckets"]["1"] == 1

    def test_needs_buckets(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram("x", "", (), buckets=())


class TestRender:
    def test_prometheus_format(self, registry):
        registry.counter("a_total", "help text", status="ok").inc()
        registry.gauge("b_seconds", "secs").set(1.25)
        text = registry.render_prometheus()
        assert "# HELP a_total help text" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{status="ok"} 1' in text
        assert "# TYPE b_seconds gauge" in text
        assert "b_seconds 1.25" in text
        assert text.endswith("\n")

    def test_help_declared_after_a_plain_lookup(self, registry):
        """A series read before its declaring module is imported still
        renders the declared help once that module declares it."""
        looked_up = registry.counter("late_total")
        declared = registry.counter("late_total", "declared late")
        assert declared is looked_up
        assert "# HELP late_total declared late" in registry.render_prometheus()
        registry.counter("late_total", "")
        assert declared.help == "declared late"

    def test_no_duplicate_sample_names(self, registry):
        """Each non-comment line's sample (name+labels) appears once —
        duplicate series are invalid Prometheus exposition."""
        registry.counter("a_total", status="x").inc()
        registry.counter("a_total", status="y").inc()
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        samples = [
            line.split(" ")[0]
            for line in registry.render_prometheus().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == len(set(samples))

    def test_global_registry_renders_without_duplicates(self):
        """The real process registry — with every module's metrics
        registered — must also expose each series exactly once."""
        import repro.harness.exec  # noqa: F401  (registers engine metrics)
        import repro.sim.system  # noqa: F401  (registers simulator metrics)

        samples = [
            line.split(" ")[0]
            for line in get_registry().render_prometheus().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == len(set(samples))

    def test_snapshot_is_json_able(self, registry):
        registry.counter("a_total", status="ok").inc()
        registry.histogram("h_seconds", buckets=(1.0,)).observe(2.0)
        json.dumps(registry.snapshot())  # must not raise
        assert registry.snapshot()["a_total"]['{status="ok"}'] == 1


class TestExport:
    def test_write_textfile_and_json(self, registry, tmp_path):
        registry.counter("a_total").inc()
        prom = registry.write_textfile(tmp_path / "m.prom")
        js = registry.write_json(tmp_path / "m.json")
        assert "a_total 1" in prom.read_text()
        assert json.loads(js.read_text())["a_total"][""] == 1
        # No leftover temp files from the atomic write.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.json",
            "m.prom",
        ]

    def test_export_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(METRICS_ENV, raising=False)
        assert metrics_output_path() is None
        assert export_metrics() is None

    def test_export_honors_env(self, monkeypatch, tmp_path):
        target = tmp_path / "metrics.prom"
        monkeypatch.setenv(METRICS_ENV, str(target))
        written = export_metrics()
        assert written is not None
        text, snapshot = written
        assert text == target
        assert snapshot == tmp_path / "metrics.prom.json"
        assert target.exists() and snapshot.exists()

    def test_explicit_path_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(METRICS_ENV, raising=False)
        text, snapshot = export_metrics(tmp_path / "out.prom")
        assert text.exists() and snapshot.exists()
