"""Span aggregation and self-time arithmetic of the traced run."""

import json
from pathlib import Path

import pytest

import layers
import measure
import run


def span(name, t0, t1, sid, parent=None, pid=1, **attrs):
    return {
        "kind": "span",
        "name": name,
        "t0": t0,
        "t1": t1,
        "dur": t1 - t0,
        "pid": pid,
        "id": sid,
        "parent": parent,
        "attrs": attrs,
    }


class TestCoveredLength:
    def test_disjoint(self):
        assert layers.covered_length([(1, 2), (3, 5)], 0, 10) == 3

    def test_overlapping_children_count_once(self):
        assert layers.covered_length([(1, 4), (2, 6), (5, 7)], 0, 10) == 6

    def test_clipped_to_parent(self):
        assert layers.covered_length([(-1, 2), (9, 12)], 0, 10) == 3

    def test_nested_child_inside_another(self):
        assert layers.covered_length([(1, 8), (2, 3)], 0, 10) == 7

    def test_empty(self):
        assert layers.covered_length([], 0, 10) == 0


class TestSelfTimes:
    def test_parent_minus_children(self):
        spans = [
            span("engine.run", 0.0, 10.0, "a"),
            span("cell.compute", 1.0, 4.0, "b", parent="a"),
            span("sim.run", 1.5, 3.5, "c", parent="b"),
            span("cell.compute", 5.0, 9.0, "d", parent="a"),
        ]
        selfs = layers.self_times(spans)
        assert selfs["a"] == pytest.approx(3.0)
        assert selfs["b"] == pytest.approx(1.0)
        assert selfs["c"] == pytest.approx(2.0)
        assert selfs["d"] == pytest.approx(4.0)

    def test_parallel_children_in_workers_cover_once(self):
        # Two workers' cells overlap in time under one supervisor span.
        spans = [
            span("engine.run", 0.0, 10.0, "a"),
            span("cell.compute", 0.5, 9.0, "w1", parent="a", pid=2),
            span("cell.compute", 1.0, 9.5, "w2", parent="a", pid=3),
        ]
        assert layers.self_times(spans)["a"] == pytest.approx(1.0)

    def test_orphan_parent_is_ignored(self):
        spans = [span("journal.flush", 0.0, 1.0, "x", parent="gone")]
        assert layers.self_times(spans) == {"x": 1.0}


def test_load_spans_skips_events_and_torn_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        json.dumps(span("sim.run", 0, 1, "a")) + "\n"
        + json.dumps({"kind": "event", "name": "cell.dispatch"}) + "\n"
        + '{"kind": "span", "name": "tor'
    )
    assert [s["id"] for s in layers.load_spans(path)] == ["a"]
    assert layers.load_spans(tmp_path / "missing.jsonl") == []


def test_layer_metrics_aggregate_one_iteration():
    spans = [
        span("bench.cli.import", 0.0, 0.4, "i"),
        span("engine.run", 1.0, 11.0, "e"),
        span("bench.cache.get", 1.0, 1.1, "g1", parent="e", hit=False),
        span("bench.cache.get", 1.1, 1.2, "g2", parent="e", hit=True),
        span("cell.compute", 1.2, 9.2, "c1", parent="e", pid=2),
        span("bench.sim.build", 1.2, 1.7, "b1", parent="c1", pid=2),
        span("sim.run", 1.7, 9.2, "s1", parent="c1", pid=2, total_cycles=1000),
        span("cell.compute", 1.2, 5.2, "c2", parent="e", pid=3),
        span("sim.run", 1.2, 4.2, "s2", parent="c2", pid=3, total_cycles=500),
        span("journal.flush", 9.3, 9.4, "f1", parent="e", entries=2),
        span("journal.flush", 9.4, 9.5, "f2", entries=4),
        span("bench.report.render", 11.0, 11.1, "r"),
    ]
    snapshot = {
        "repro_store_requests_total": {
            '{kind="trace",outcome="hit"}': 3.0,
            '{kind="trace",outcome="miss"}': 1.0,
        }
    }
    m = {k: v for k, (v, _) in layers.layer_metrics(spans, [snapshot], 2, 1, 2).items()}
    assert m["cli.import_s"] == pytest.approx(0.4)
    assert m["exec.cell_s"] == pytest.approx(12.0)
    assert m["exec.cell.self_s"] == pytest.approx(1.0)
    assert m["trace.worker_coverage"] == pytest.approx(11.0 / 12.0)
    assert m["exec.idle_slot_s"] == pytest.approx(2 * 10.0 - 12.0)
    assert m["sim.runs"] == 2 and m["sim.cycles"] == 1500
    assert m["sim.ns_per_cycle"] == pytest.approx(10.5e9 / 1500)
    assert (m["cache.hits"], m["cache.misses"]) == (1, 1)
    assert m["journal.flushes"] == 2 and m["journal.entries_per_flush"] == 3
    assert m["store.trace_hit_ratio"] == pytest.approx(0.75)
    assert m["store.rmax_hit_ratio"] == 0.0
    assert (m["exec.chunks"], m["exec.steals"]) == (2, 1)
    assert m["exec.cell_s.p50"] == pytest.approx(6.0)


def test_empty_trace_reports_zeros():
    metrics = layers.layer_metrics([], [], 0, 0, 2)
    assert all(value == 0 for value, _ in metrics.values())


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    produced = {k: unit for k, (_, unit) in layers.layer_metrics([], [], 0, 0, 2).items()}
    produced["trace.overhead_s"] = "s"
    iteration = run.Iteration("a", probes=[1.0])
    setup = measure.ChildRun(0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, b"", "", probes=[1.0])
    produced.update(
        {k: unit for k, (_, unit) in run.unscaled_metrics([iteration], [setup]).items()}
    )
    assert listed == produced
