"""Precompute-store benchmark: disabled vs cold vs warm campaigns.

Measures what the cross-cell precompute store (``repro.harness.store``)
buys on a real multi-mix campaign and writes the results to
``BENCH_store.json`` at the repository root:

* **disabled** — ``REPRO_PRECOMPUTE=off``: the legacy path, every cell
  recomposes its workload traces and every worker process re-runs the
  Dinkelbach solver behind Untangle's rate table;
* **cold** — store enabled against an empty directory: populate composes
  each distinct trace once and solves the rate table once, then every
  cell attaches zero-copy;
* **warm** — the same directory again: a second campaign session, which
  must regenerate *nothing* (zero workload compositions, zero solves —
  asserted from the engine's telemetry, not assumed).

The campaign is mixes 1-4 under all four Table 4 schemes with
``--jobs 4`` and the result cache/journal disabled, so every cell
simulates and the only sharing is the store's. Untangle cells are
ordered first: the engine hands the first ``jobs`` cells to distinct
workers, so the disabled mode demonstrably pays one rate-table solve
*per worker* while the store modes pay exactly one in populate.

Methodology: each mode runs in a fresh child process (clean memoizers,
clean metrics registry — exactly how real sessions behave), repetitions
are interleaved (disabled, cold, warm, disabled, ...) so all modes see
the same machine drift, and the per-mode minimum is reported. The
recorded *speedups* (disabled/cold and disabled/warm on the same host)
are the machine-independent quantities the perf regression check
(:mod:`repro.harness.perfbaseline`, CI ``perf-smoke`` job) compares.
Results are required to be bit-identical across all modes and reps.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py            # full run
    PYTHONPATH=src python benchmarks/bench_store.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_store.py --output /tmp/b.json

Standalone script (not a pytest benchmark): each measurement needs its
own child interpreter and environment, which does not fit
``benchmark.pedantic`` cells; it defines no ``test_`` functions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Where the results land (the committed perf baseline).
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_store.json"

#: The campaign grid: every Table 4 scheme over the Table 6 mixes.
MIXES = (1, 2, 3, 4)
SCHEMES = ("untangle", "static", "time", "shared")
JOBS = 4

#: JSON layout version, checked by :mod:`repro.harness.perfbaseline`.
FORMAT_VERSION = 1

#: Telemetry keys shipped from the child for the report/assertions.
TELEMETRY_KEYS = (
    "workload_builds",
    "rmax_solves",
    "store_trace_hits",
    "store_trace_misses",
    "store_trace_bytes",
    "store_rmax_hits",
    "store_rmax_misses",
    "store_quarantines",
)


# ----------------------------------------------------------------------
# Child: one measured campaign in a clean interpreter
# ----------------------------------------------------------------------
def run_campaign(mode: str, store_dir: str | None, num_pairs: int) -> dict:
    """Execute the grid once; returns wall, fingerprint, telemetry."""
    from repro.harness.exec import ExecutionEngine, MixSchemeCell
    from repro.harness.runconfig import BENCH
    from repro.harness.store import PrecomputeStore
    from repro.workloads.mixes import get_mix

    cells = [
        MixSchemeCell(
            pairs=tuple(get_mix(mix_id)[:num_pairs]),
            scheme=scheme,
            profile=BENCH,
        )
        # Scheme-major order puts the untangle cells first: the engine
        # assigns the first ``jobs`` pending cells to distinct workers,
        # so the disabled mode pays the solve once per worker.
        for scheme in SCHEMES
        for mix_id in MIXES
    ]
    store = None if mode == "disabled" else PrecomputeStore(store_dir)
    engine = ExecutionEngine(jobs=JOBS, store=store)
    start = time.perf_counter()
    outcomes = engine.run(cells)
    wall = time.perf_counter() - start
    if not all(outcome.status == "computed" for outcome in outcomes):
        bad = [o.label for o in outcomes if o.status != "computed"]
        raise AssertionError(f"cells did not compute: {bad}")
    snap = engine.telemetry.snapshot()
    return {
        "wall": wall,
        "fingerprint": {
            outcome.cell.label: MixSchemeCell.encode(outcome.value)
            for outcome in outcomes
        },
        "telemetry": {key: snap[key] for key in TELEMETRY_KEYS},
    }


def _child_main(args) -> int:
    if args.mode == "disabled":
        os.environ["REPRO_PRECOMPUTE"] = "off"
    report = run_campaign(args.mode, args.store_dir, args.pairs)
    json.dump(report, sys.stdout)
    return 0


# ----------------------------------------------------------------------
# Parent: interleave child measurements
# ----------------------------------------------------------------------
def _measure(mode: str, store_dir: str | None, num_pairs: int) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_PRECOMPUTE", "REPRO_STORE_DIR"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        mode,
        "--pairs",
        str(num_pairs),
    ]
    if store_dir is not None:
        command += ["--store-dir", store_dir]
    result = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=3600
    )
    if result.returncode != 0:
        raise AssertionError(
            f"{mode} campaign failed:\n{result.stderr}"
        )
    return json.loads(result.stdout)


def bench_store(num_pairs: int, reps: int, scratch: Path) -> dict:
    walls: dict[str, list[float]] = {"disabled": [], "cold": [], "warm": []}
    telemetry: dict[str, dict] = {}
    fingerprints: list = []

    for rep in range(reps):
        store_dir = str(scratch / f"store-{rep}")  # cold = empty every rep
        for mode in ("disabled", "cold", "warm"):
            report = _measure(
                mode, None if mode == "disabled" else store_dir, num_pairs
            )
            walls[mode].append(report["wall"])
            telemetry[mode] = report["telemetry"]
            fingerprints.append((mode, report["fingerprint"]))
            print(
                f"  rep {rep + 1}/{reps} {mode:8s} {report['wall']:6.2f}s  "
                f"builds={report['telemetry']['workload_builds']:3d} "
                f"solves={report['telemetry']['rmax_solves']:3d}",
                flush=True,
            )

    reference = fingerprints[0][1]
    identical = all(fp == reference for _, fp in fingerprints)
    if not identical:
        divergent = sorted({mode for mode, fp in fingerprints if fp != reference})
        raise AssertionError(f"campaign results diverge across modes: {divergent}")
    warm_telemetry = telemetry["warm"]
    if warm_telemetry["workload_builds"] or warm_telemetry["rmax_solves"]:
        raise AssertionError(
            "warm campaign regenerated inputs: "
            f"{warm_telemetry['workload_builds']} workload builds, "
            f"{warm_telemetry['rmax_solves']} rmax solves"
        )

    disabled = min(walls["disabled"])
    cold = min(walls["cold"])
    warm = min(walls["warm"])
    return {
        "campaign": {
            "profile": "bench",
            "mixes": list(MIXES),
            "schemes": list(SCHEMES),
            "pairs": num_pairs,
            "jobs": JOBS,
            "cells": len(MIXES) * len(SCHEMES),
        },
        "disabled": {
            "seconds": disabled,
            "telemetry": telemetry["disabled"],
        },
        "cold": {
            "seconds": cold,
            "speedup": disabled / cold,
            "identical": identical,
            "telemetry": telemetry["cold"],
        },
        "warm": {
            "seconds": warm,
            "speedup": disabled / warm,
            "identical": identical,
            "telemetry": warm_telemetry,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the precompute store: disabled vs cold vs warm."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 2 pairs per mix and fewer repetitions (same "
        "grid shape — 4 untangle cells on 4 workers — so the disabled "
        "mode's redundant solves stay visible and speedups comparable)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="interleaved repetitions per mode (default: 3, or 2 with --quick)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"result JSON path (default: {DEFAULT_OUTPUT})",
    )
    # Internal: run one campaign in this process and print its report.
    parser.add_argument("--child", dest="mode", choices=("disabled", "cold", "warm"))
    parser.add_argument("--store-dir", default=None)
    parser.add_argument("--pairs", type=int, default=None)
    args = parser.parse_args(argv)
    if args.mode:
        return _child_main(args)

    reps = args.reps or (2 if args.quick else 3)
    num_pairs = 2 if args.quick else 4
    print(
        f"store campaign ({len(MIXES)} mixes x {len(SCHEMES)} schemes, "
        f"{num_pairs} pairs, jobs={JOBS}, min of {reps}):",
        flush=True,
    )
    with tempfile.TemporaryDirectory(prefix="bench-store-") as scratch:
        results = bench_store(num_pairs, reps, Path(scratch))

    for mode in ("disabled", "cold", "warm"):
        entry = results[mode]
        speedup = (
            f"  speedup={entry['speedup']:5.2f}x" if "speedup" in entry else ""
        )
        print(f"  {mode:8s} {entry['seconds']:6.2f}s{speedup}", flush=True)

    payload = {
        "format": FORMAT_VERSION,
        "kind": "store",
        "quick": args.quick,
        "reps": reps,
        **results,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
