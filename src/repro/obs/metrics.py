"""Process-local metrics registry: counters, gauges, histograms.

The registry is the single source of truth for campaign counters — the
execution engine's :class:`~repro.harness.exec.EngineTelemetry` mirrors
into it (see ``EngineTelemetry.snapshot``), the simulator and journal
increment it directly, and two exporters read it back out:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus textfile
  exposition format, for node-exporter-style scraping of long campaigns
  (``--metrics-out metrics.prom`` / ``REPRO_METRICS``);
* :meth:`MetricsRegistry.snapshot` — a JSON-able dict, written beside
  the textfile as ``<name>.json``.

Metrics are cheap enough to record unconditionally — every increment in
this codebase happens per *cell*, per *simulation run*, or per *journal
append*, never per simulated memory access — so there is no enabled
flag on the recording side; ``REPRO_METRICS`` only controls whether the
files are written. Histogram buckets are fixed at construction
(Prometheus-style ``le`` upper bounds), so observation is O(#buckets)
with no allocation.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Iterable

#: Environment variable naming the metrics textfile output
#: (``--metrics-out`` writes it too). Empty/unset disables export.
METRICS_ENV = "REPRO_METRICS"

#: Default histogram buckets for per-cell wall-time, seconds.
CELL_SECONDS_BUCKETS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0)


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # Render integers without a trailing ``.0`` for readability.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing count (within one process)."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "value", "_lock")

    def __init__(self, name: str, help: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def set_total(self, value: float) -> None:
        """Mirror an externally accumulated total (never decreases)."""
        with self._lock:
            if value > self.value:
                self.value = value

    def render(self) -> list[str]:
        return [f"{self.name}{_format_labels(self.labels)} {_format_value(self.value)}"]

    def snapshot_value(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (e.g. seconds, worker count)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "value", "_lock")

    def __init__(self, name: str, help: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def render(self) -> list[str]:
        return [f"{self.name}{_format_labels(self.labels)} {_format_value(self.value)}"]

    def snapshot_value(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram (Prometheus ``le`` upper-bound convention)."""

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "buckets", "counts", "sum", "count", "_lock")

    def __init__(
        self,
        name: str,
        help: str,
        labels: tuple[tuple[str, str], ...],
        buckets: Iterable[float],
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last bucket = +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def render(self) -> list[str]:
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            labels = self.labels + (("le", _format_value(bound)),)
            lines.append(f"{self.name}_bucket{_format_labels(labels)} {cumulative}")
        labels = self.labels + (("le", "+Inf"),)
        lines.append(f"{self.name}_bucket{_format_labels(labels)} {self.count}")
        base = _format_labels(self.labels)
        lines.append(f"{self.name}_sum{base} {_format_value(self.sum)}")
        lines.append(f"{self.name}_count{base} {self.count}")
        return lines

    def snapshot_value(self) -> dict[str, Any]:
        return {
            "buckets": {
                _format_value(bound): count
                for bound, count in zip(self.buckets, self.counts)
            },
            "inf": self.counts[-1],
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labels: dict, **extra):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help, key[1], **extra)
                self._metrics[key] = metric
            elif metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            elif help and not metric.help:
                # A reader (e.g. a telemetry snapshot) may look a series
                # up before the module that declares it is imported.
                metric.help = help
            return metric

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = CELL_SECONDS_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    # ------------------------------------------------------------------
    def _sorted_metrics(self):
        with self._lock:
            return sorted(self._metrics.items(), key=lambda item: item[0])

    def render_prometheus(self) -> str:
        """The Prometheus textfile exposition of every metric."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for (name, _), metric in self._sorted_metrics():
            if name not in seen_headers:
                seen_headers.add(name)
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """JSON-able dump: ``{name: {label-string or "": value}}``."""
        out: dict[str, Any] = {}
        for (name, labels), metric in self._sorted_metrics():
            key = _format_labels(labels)
            out.setdefault(name, {})[key or ""] = metric.snapshot_value()
        return out

    def write_textfile(self, path: str | Path) -> Path:
        """Atomically write the Prometheus exposition to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.render_prometheus(), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def write_json(self, path: str | Path) -> Path:
        """Atomically write the JSON snapshot to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path

    def reset(self) -> None:
        """Drop every metric (tests only)."""
        with self._lock:
            self._metrics.clear()


#: The process-wide registry every subsystem records into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def metrics_output_path() -> Path | None:
    """Where ``REPRO_METRICS`` asks the textfile to be written, if set."""
    raw = os.environ.get(METRICS_ENV, "").strip()
    if not raw or raw == "0":
        return None
    return Path(raw)


def export_metrics(path: str | Path | None = None) -> tuple[Path, Path] | None:
    """Write the textfile + JSON snapshot; returns both paths.

    ``path`` defaults to ``REPRO_METRICS``; with neither set, does
    nothing and returns ``None``. The JSON lands beside the textfile
    with a ``.json`` suffix appended.
    """
    target = Path(path) if path is not None else metrics_output_path()
    if target is None:
        return None
    registry = get_registry()
    text = registry.write_textfile(target)
    json_path = registry.write_json(target.with_name(target.name + ".json"))
    return text, json_path
