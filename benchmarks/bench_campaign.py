"""Campaign scheduler benchmark: fifo per-cell dispatch vs the
cell-major batching / work-stealing supervisor.

Measures what chunked dispatch (``repro.harness.exec``) buys on a
mixed-scheme campaign and writes the results to ``BENCH_campaign.json`` at
the repository root:

* **serial** — ``jobs=1``: the in-process reference whose results
  every parallel mode must reproduce byte-for-byte (run once, only to
  anchor bit-identity);
* **percell** — ``jobs=4`` under the legacy ``fifo`` scheduler: one
  cell per dispatch from a single shared queue, in submission order;
* **stolen** — the ``steal`` scheduler with ``batch_cells=1``:
  longest-expected-first seeding onto per-worker deques plus
  steal-on-idle, still one cell per dispatch;
* **batched** — the ``steal`` scheduler with ``batch_cells=8``: a
  whole batch group rides in one chunk to one worker, sharing that
  process's scratch arena and memoizers.

The campaign leads with the untangle cells (scheme-major submission
order, as real campaign drivers emit it), and the store is disabled,
as in legacy sessions. Every forked pool pre-solves the untangle rate
table and pre-walks the L1 service traces in the parent before its
workers fork, so no mode pays a per-worker solve; what separates the
modes is dispatch overhead and how much per-process memoizer reuse
(workload builds, shared traces) a worker's run of cells gets. Work
stealing's own benefit is overlap — rebalancing stragglers across
cores — so on a few-core host the ``stolen`` mode measures close to
1.0x; it is recorded as measured (the ``campaign`` section records the
host's core count for context). The steal scheduler's balancing
guarantees are pinned deterministically by
``tests/harness/test_scheduler.py`` instead.

Methodology matches ``bench_store.py``: every measurement runs in a
fresh child interpreter (clean memoizers and metrics), repetitions are
interleaved so all modes see the same machine drift, and the per-mode
minimum is reported. The recorded *speedups* (percell/stolen and
percell/batched on the same host) are the machine-independent
quantities the perf regression check (:mod:`repro.harness.perfbaseline`,
CI ``perf-smoke`` job) compares. All modes must be bit-identical to
the serial reference, and every mode's telemetry must satisfy
``computed + hit + replayed + failed == total``.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py            # full run
    PYTHONPATH=src python benchmarks/bench_campaign.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_campaign.py --output /tmp/b.json

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
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Where the results land (the committed perf baseline).
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_campaign.json"

#: Cheap schemes filling out the grid behind the untangle group.
FAST_SCHEMES = ("static", "shared", "time")

#: Workload pairs per cell.
PAIRS = 2

JOBS = 4

#: JSON layout version, checked by :mod:`repro.harness.perfbaseline`.
FORMAT_VERSION = 1

#: Engine parameters per measured mode.
MODES: dict[str, dict] = {
    "serial": {"jobs": 1},
    "percell": {"jobs": JOBS, "scheduler": "fifo"},
    "stolen": {"jobs": JOBS, "scheduler": "steal", "batch_cells": 1},
    "batched": {"jobs": JOBS, "scheduler": "steal", "batch_cells": 8},
}

#: Scheduling telemetry shipped from the child for the report.
TELEMETRY_KEYS = (
    "steals",
    "batches",
    "batched_cells",
    "wall_seconds",
)


def campaign_cells(quick: bool):
    """The grid: untangle cells first, fast cells behind them.

    Untangle-first is scheme-major submission order (as real campaign
    drivers emit it). The full run covers every paper mix (1-16);
    ``--quick`` keeps the first four (same shape, so the speedups stay
    comparable to the committed full-run baseline).

    Some paper mixes share their leading ``PAIRS`` workload pairs
    (at depth 2: mixes 1 and 2, 8 and 9, 14 and 15, and 4 and 16 are
    identical), which would put the same cell — same label, same
    result — in the grid twice; duplicates are dropped so the
    fingerprint covers every cell exactly once. The deduplicated full
    grid is twelve cells per scheme.
    """
    from repro.harness.exec import MixSchemeCell
    from repro.harness.runconfig import BENCH
    from repro.workloads.mixes import get_mix

    mixes = range(1, 5) if quick else range(1, 17)
    cells = []
    seen = set()
    for scheme in ("untangle",) + FAST_SCHEMES:
        for mix_id in mixes:
            cell = MixSchemeCell(
                pairs=tuple(get_mix(mix_id)[:PAIRS]),
                scheme=scheme,
                profile=BENCH,
            )
            if cell.label not in seen:
                seen.add(cell.label)
                cells.append(cell)
    return cells


# ----------------------------------------------------------------------
# Child: one measured campaign in a clean interpreter
# ----------------------------------------------------------------------
def run_campaign(mode: str, quick: bool) -> dict:
    """Execute the grid once; returns wall, fingerprint, telemetry."""
    from repro.harness.exec import ExecutionEngine, MixSchemeCell

    cells = campaign_cells(quick)
    engine = ExecutionEngine(**MODES[mode])
    start = time.perf_counter()
    outcomes = engine.run(cells)
    wall = time.perf_counter() - start
    if not all(outcome.status == "computed" for outcome in outcomes):
        bad = [o.label for o in outcomes if o.status != "computed"]
        raise AssertionError(f"cells did not compute: {bad}")
    snap = engine.telemetry.snapshot()
    if (
        snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
        != snap["total"]
    ):
        raise AssertionError(f"telemetry invariant violated: {snap}")
    return {
        "wall": wall,
        "fingerprint": {
            outcome.cell.label: MixSchemeCell.encode(outcome.value)
            for outcome in outcomes
        },
        "telemetry": {key: snap[key] for key in TELEMETRY_KEYS},
    }


def _child_main(args) -> int:
    # The store would amortize the rate-table solve across workers and
    # sessions, hiding exactly the redundancy this benchmark measures;
    # the scheduler must stand on its own in store-less sessions.
    os.environ["REPRO_PRECOMPUTE"] = "off"
    report = run_campaign(args.mode, args.child_quick)
    json.dump(report, sys.stdout)
    return 0


# ----------------------------------------------------------------------
# Parent: interleave child measurements
# ----------------------------------------------------------------------
def _measure(mode: str, quick: bool) -> dict:
    env = dict(os.environ)
    for name in (
        "REPRO_JOBS",
        "REPRO_SCHED",
        "REPRO_BATCH_CELLS",
        "REPRO_CACHE",
        "REPRO_CACHE_DIR",
        "REPRO_JOURNAL",
        "REPRO_RESUME",
        "REPRO_FAULTS",
        "REPRO_PRECOMPUTE",
        "REPRO_STORE_DIR",
        "REPRO_STORE_SHM",
        "REPRO_TRACE",
        "REPRO_METRICS",
        "REPRO_PROFILE",
    ):
        env.pop(name, None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    command = [sys.executable, str(Path(__file__).resolve()), "--child", mode]
    if quick:
        command.append("--child-quick")
    result = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=3600
    )
    if result.returncode != 0:
        raise AssertionError(f"{mode} campaign failed:\n{result.stderr}")
    return json.loads(result.stdout)


def bench_campaign(quick: bool, reps: int) -> dict:
    walls: dict[str, list[float]] = {"percell": [], "stolen": [], "batched": []}
    telemetry: dict[str, dict] = {}
    fingerprints: list = []

    # The serial reference runs once: it only anchors bit-identity.
    serial = _measure("serial", quick)
    fingerprints.append(("serial", serial["fingerprint"]))
    print(f"  serial reference {serial['wall']:6.2f}s", flush=True)

    for rep in range(reps):
        for mode in ("percell", "stolen", "batched"):
            report = _measure(mode, quick)
            walls[mode].append(report["wall"])
            telemetry[mode] = report["telemetry"]
            fingerprints.append((mode, report["fingerprint"]))
            print(
                f"  rep {rep + 1}/{reps} {mode:8s} {report['wall']:6.2f}s  "
                f"chunks={report['telemetry']['batches']:3d} "
                f"steals={report['telemetry']['steals']:3d}",
                flush=True,
            )

    reference = fingerprints[0][1]
    identical = all(fp == reference for _, fp in fingerprints)
    if not identical:
        divergent = sorted({mode for mode, fp in fingerprints if fp != reference})
        raise AssertionError(f"campaign results diverge across modes: {divergent}")

    percell = min(walls["percell"])
    stolen = min(walls["stolen"])
    batched = min(walls["batched"])
    return {
        "campaign": {
            "profile": "bench",
            "schemes": ["untangle", *FAST_SCHEMES],
            "pairs": PAIRS,
            "cells": len(reference),
            "jobs": JOBS,
            "host_cores": os.cpu_count(),
        },
        "serial": {"seconds": serial["wall"]},
        "percell": {
            "seconds": percell,
            "identical": identical,
            "telemetry": telemetry["percell"],
        },
        "stolen": {
            "seconds": stolen,
            "speedup": percell / stolen,
            "identical": identical,
            "telemetry": telemetry["stolen"],
        },
        "batched": {
            "seconds": batched,
            "speedup": percell / batched,
            "identical": identical,
            "telemetry": telemetry["batched"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark campaign scheduling: fifo per-cell dispatch "
        "vs work stealing (per-cell and chunked)."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: a quarter of the mix range and fewer repetitions "
        "(same grid shape — untangle cells leading on 4 workers — so "
        "speedups stay comparable)",
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
    parser.add_argument("--child", dest="mode", choices=tuple(MODES))
    parser.add_argument("--child-quick", action="store_true")
    args = parser.parse_args(argv)
    if args.mode:
        return _child_main(args)

    reps = args.reps or (2 if args.quick else 3)
    print(
        f"scheduler campaign (jobs={JOBS}, min of {reps}):",
        flush=True,
    )
    results = bench_campaign(args.quick, reps)

    for mode in ("percell", "stolen", "batched"):
        entry = results[mode]
        speedup = (
            f"  speedup={entry['speedup']:5.2f}x" if "speedup" in entry else ""
        )
        print(f"  {mode:8s} {entry['seconds']:6.2f}s{speedup}", flush=True)

    payload = {
        "format": FORMAT_VERSION,
        "kind": "campaign",
        "quick": args.quick,
        "reps": reps,
        **results,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
