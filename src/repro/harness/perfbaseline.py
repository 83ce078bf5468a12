"""Perf regression check against the committed performance baselines.

Three benchmark drivers record machine-independent *speedup ratios* at the
repository root (absolute wall-clock depends on the host; the ratio of
two modes measured back-to-back on the same machine does not, to first
order):

* ``benchmarks/bench_kernel.py`` → ``BENCH_kernel.json``: batched vs
  reference simulation kernel, per scheme and for the raw cache kernel;
* ``benchmarks/bench_store.py`` → ``BENCH_store.json``
  (``"kind": "store"``): a multi-mix campaign with the precompute store
  disabled vs cold vs warm;
* ``benchmarks/bench_overhead.py`` → ``BENCH_overhead.json``
  (``"kind": "overhead"``): a control-plane-bound campaign of trivial
  cells under per-cell journal fsync vs the group-commit journal, both
  over the packed result cache.

A regression is flagged when a freshly measured speedup falls more than
``tolerance`` (default 30%) below the committed baseline's — i.e. the
optimization lost a significant fraction of its advantage — or when a
measurement reports non-identical results between the modes (which is a
correctness bug, never tolerated).

CLI (the CI ``perf-smoke`` job)::

    PYTHONPATH=src python benchmarks/bench_kernel.py --quick --output fresh.json
    PYTHONPATH=src python -m repro.harness.perfbaseline --current fresh.json

    PYTHONPATH=src python benchmarks/bench_store.py --quick --output fresh.json
    PYTHONPATH=src python -m repro.harness.perfbaseline --current fresh.json

The baseline defaults to the committed file matching the current
payload's kind, so the same command line serves every check.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError

#: The committed baseline written by ``benchmarks/bench_kernel.py``.
BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_kernel.json"

#: The committed baseline written by ``benchmarks/bench_store.py``.
STORE_BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_store.json"

#: The committed baseline written by ``benchmarks/bench_overhead.py``.
OVERHEAD_BASELINE_PATH = (
    Path(__file__).resolve().parents[3] / "BENCH_overhead.json"
)

#: Allowed fractional loss of speedup before a measurement is a regression.
DEFAULT_TOLERANCE = 0.30


def load_bench(path: str | Path) -> dict:
    """Parse one benchmark JSON, validating its layout version."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read benchmark file {path}: {exc}")
    except ValueError as exc:
        raise ConfigurationError(f"benchmark file {path} is not JSON: {exc}")
    if not isinstance(payload, dict) or "format" not in payload:
        raise ConfigurationError(f"benchmark file {path} has no format marker")
    if payload["format"] != 1:
        raise ConfigurationError(
            f"benchmark file {path} has format {payload['format']!r}; "
            "this checker understands format 1"
        )
    return payload


def _speedups(payload: dict) -> dict[str, float]:
    """Flatten a benchmark payload to ``{measurement: speedup}``."""
    if payload.get("kind") == "store":
        return {
            "store/cold": float(payload["cold"]["speedup"]),
            "store/warm": float(payload["warm"]["speedup"]),
        }
    if payload.get("kind") == "overhead":
        return {"overhead/fastpath": float(payload["grouped"]["speedup"])}
    out = {"raw_kernel": float(payload["raw_kernel"]["speedup"])}
    for scheme, cell in payload["end_to_end"]["cells"].items():
        out[f"end_to_end/{scheme}"] = float(cell["speedup"])
    return out


def _identity_failures(payload: dict) -> list[str]:
    """Measurements whose modes reported non-identical results."""
    if payload.get("kind") == "store":
        return [
            f"store/{mode}"
            for mode in ("cold", "warm")
            if not payload[mode].get("identical", False)
        ]
    if payload.get("kind") == "overhead":
        return [
            f"overhead/{mode}"
            for mode in ("percell", "grouped")
            if not payload[mode].get("identical", False)
        ]
    return [
        f"end_to_end/{scheme}"
        for scheme, cell in payload["end_to_end"]["cells"].items()
        if not cell.get("identical", False)
    ]


@dataclass(frozen=True)
class Regression:
    """One measurement that fell outside the tolerance."""

    measurement: str
    baseline: float
    current: float
    #: Fractional loss of speedup relative to the baseline.
    loss: float

    def __str__(self) -> str:
        if self.loss >= 1.0:
            return f"{self.measurement}: kernels reported non-identical results"
        return (
            f"{self.measurement}: speedup {self.current:.2f}x is "
            f"{self.loss:.0%} below the baseline {self.baseline:.2f}x"
        )


def compare(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[Regression]:
    """Regressions of ``current`` against ``baseline``.

    Only measurements present in *both* payloads are compared, so a
    baseline refresh that adds a scheme does not break older branches.
    A current cell with ``identical: false`` is reported as a regression
    with ``loss = 1.0`` — equivalence failures outrank any timing.
    """
    if not 0 <= tolerance < 1:
        raise ConfigurationError("tolerance must be in [0, 1)")
    if current.get("kind") != baseline.get("kind"):
        raise ConfigurationError(
            f"cannot compare a {current.get('kind') or 'kernel'!r} benchmark "
            f"against a {baseline.get('kind') or 'kernel'!r} baseline"
        )
    regressions: list[Regression] = []
    for measurement in _identity_failures(current):
        regressions.append(Regression(measurement, 0.0, 0.0, 1.0))
    base = _speedups(baseline)
    cur = _speedups(current)
    for measurement in sorted(base.keys() & cur.keys()):
        floor = base[measurement] * (1.0 - tolerance)
        if cur[measurement] < floor:
            loss = 1.0 - cur[measurement] / base[measurement]
            regressions.append(
                Regression(measurement, base[measurement], cur[measurement], loss)
            )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.perfbaseline",
        description="Compare a fresh kernel benchmark against the committed "
        "baseline; exit 1 on regression.",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed baseline (default: the committed file matching the "
        f"current payload's kind — {BASELINE_PATH.name}, "
        f"{STORE_BASELINE_PATH.name}, or {OVERHEAD_BASELINE_PATH.name})",
    )
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="freshly measured BENCH_kernel.json to check",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional speedup loss (default: 0.30)",
    )
    args = parser.parse_args(argv)
    current = load_bench(args.current)
    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = {
            "store": STORE_BASELINE_PATH,
            "overhead": OVERHEAD_BASELINE_PATH,
        }.get(current.get("kind"), BASELINE_PATH)
    baseline = load_bench(baseline_path)
    regressions = compare(current, baseline, args.tolerance)
    base, cur = _speedups(baseline), _speedups(current)
    for measurement in sorted(base.keys() | cur.keys()):
        print(
            f"{measurement:22s} baseline={base.get(measurement, float('nan')):5.2f}x "
            f"current={cur.get(measurement, float('nan')):5.2f}x"
        )
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 1
    print(f"ok: no speedup fell more than {args.tolerance:.0%} below baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
