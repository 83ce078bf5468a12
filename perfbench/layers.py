"""Per-layer metrics from one traced iteration.

The traced iteration leaves a span JSONL (the program's own spans plus
the ``bench.*`` spans of ``traced.py``), one metrics snapshot per
command and each command's ``--telemetry`` counters. This module turns
them into the ``per_layer`` metrics of ``BENCHMARK.json``.

For every span kind it reports the total time (sum of durations) and
the self time: each span's duration minus the part of its interval that
its child spans cover. Children link to their parent by the id the
program's tracer records. Workers are forked inside ``engine.run`` and
inherit the supervisor's span stack, so their ``cell.compute`` spans are
children of ``engine.run``: its self time is the part of the run when no
cell, cache, store or journal span was open in any process, which is the
engine's own time on the path that blocks the result.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

#: Span name -> metric prefix. ``<prefix>_s`` is the total time and
#: ``<prefix>.self_s`` the self time.
SPAN_METRICS = {
    "bench.cli.import": "cli.import",
    "engine.run": "exec.run",
    "bench.exec.prefork": "exec.prefork",
    "cell.compute": "exec.cell",
    "sim.run": "sim.run",
    "bench.sim.build": "sim.build",
    "bench.rmax.solve": "rmax.solve",
    "bench.workloads.build": "workloads.build",
    "store.populate": "store.populate",
    "bench.cache.get": "cache.get",
    "bench.cache.put": "cache.put",
    "bench.journal.record": "journal.record",
    "journal.flush": "journal.flush",
    "bench.report.render": "report.render",
}


def load_spans(path: Path) -> list[dict]:
    """Closed spans of a trace file; torn or foreign lines are skipped."""
    spans = []
    if not path.exists():
        return spans
    for line in path.read_text(errors="replace").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("kind") == "span":
            spans.append(record)
    return spans


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children[parent].append((span["t0"], span["t1"]))
    return {
        span["id"]: span["dur"]
        - covered_length(children.get(span["id"], []), span["t0"], span["t1"])
        for span in spans
    }


def _store_requests(snapshots: list[dict], kind: str) -> tuple[float, float]:
    hits = misses = 0.0
    for snapshot in snapshots:
        series = snapshot.get("repro_store_requests_total", {})
        hits += series.get(f'{{kind="{kind}",outcome="hit"}}', 0.0)
        misses += series.get(f'{{kind="{kind}",outcome="miss"}}', 0.0)
    return hits, misses


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[dict],
    snapshots: list[dict],
    chunks: int,
    steals: int,
    jobs: int,
) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced iteration."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(span["dur"] for span in by_name[name])

    out: dict[str, tuple[float, str]] = {}
    for name, prefix in SPAN_METRICS.items():
        out[f"{prefix}_s"] = (total(name), "s")
        out[f"{prefix}.self_s"] = (
            sum(selfs[span["id"]] for span in by_name[name]),
            "s",
        )

    cycles = sum(
        span.get("attrs", {}).get("total_cycles", 0) for span in by_name["sim.run"]
    )
    cell_durations = sorted(span["dur"] for span in by_name["cell.compute"])
    cell_total = sum(cell_durations)
    cell_self = sum(selfs[span["id"]] for span in by_name["cell.compute"])
    gets = by_name["bench.cache.get"]
    hits = sum(1 for span in gets if span.get("attrs", {}).get("hit"))
    flushes = by_name["journal.flush"]
    flushed = sum(span.get("attrs", {}).get("entries", 0) for span in flushes)
    trace_hits, trace_misses = _store_requests(snapshots, "trace")
    rmax_hits, rmax_misses = _store_requests(snapshots, "rmax")

    out.update(
        {
            "sim.runs": (len(by_name["sim.run"]), "count"),
            "sim.cycles": (cycles, "cycles"),
            "sim.ns_per_cycle": (_ratio(total("sim.run") * 1e9, cycles), "ns/cycle"),
            "rmax.solves": (len(by_name["bench.rmax.solve"]), "count"),
            "workloads.builds": (len(by_name["bench.workloads.build"]), "count"),
            "store.trace_hit_ratio": (
                _ratio(trace_hits, trace_hits + trace_misses),
                "ratio",
            ),
            "store.rmax_hit_ratio": (
                _ratio(rmax_hits, rmax_hits + rmax_misses),
                "ratio",
            ),
            "exec.idle_slot_s": (jobs * total("engine.run") - cell_total, "s"),
            "exec.chunks": (chunks, "count"),
            "exec.steals": (steals, "count"),
            "exec.cells": (len(cell_durations), "count"),
            "exec.cell_s.p50": (_percentile(cell_durations, 50), "s"),
            "exec.cell_s.p90": (_percentile(cell_durations, 90), "s"),
            "cache.hits": (hits, "count"),
            "cache.misses": (len(gets) - hits, "count"),
            "cache.puts": (len(by_name["bench.cache.put"]), "count"),
            "journal.flushes": (len(flushes), "count"),
            "journal.entries_per_flush": (_ratio(flushed, len(flushes)), "entries/flush"),
            # Share of cell time spent inside the named layers' spans.
            "trace.worker_coverage": (
                _ratio(cell_total - cell_self, cell_total),
                "ratio",
            ),
        }
    )
    return out


def _percentile(sorted_values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``), 0 when empty."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100)[pct - 1]
