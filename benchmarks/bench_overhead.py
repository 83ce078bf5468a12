"""Control-plane overhead benchmark: per-cell journal fsync vs group
commit, both over the packed result cache.

A campaign of *cheap* cells is control-plane bound: the journal fsync
and the result-cache write dominate each cell's wall time. This
benchmark measures that bound directly and writes the results to
``BENCH_overhead.json`` at the repository root:

* **off** — no journal, no cache: the pure-compute floor (run once,
  for context; nothing to compare bit-identically against it because
  it leaves no artifacts);
* **percell** — a synchronous journal (``batch_entries=1``: one
  ``write`` + one ``fsync`` per cell) over the packed cache;
* **grouped** — the fast path: the group-commit journal
  (``batch_entries=64`` with a linger flush, one ``fsync`` per batch)
  over the same packed cache.

The two arms differ only in the journal's batch size, so their ratio
measures group commit alone. Each arm runs the same synthetic campaign
of trivial cells whose values carry floats, so the recorded
fingerprints prove the fast path is bit-identical to the per-cell one
— batching moves *when* bytes reach the disk, never *what* they say.
Both persisted arms also re-run the campaign against their own cache
(the ``warm`` measurement, reported for context) and assert every cell
hits: the packed segments round-trip everything they absorbed.

The headline ratio — ``percell`` vs ``grouped`` cells/sec on the same
host — is what the perf regression check
(:mod:`repro.harness.perfbaseline`, CI ``perf-smoke`` job) compares.
It is fsync cost over per-cell CPU, so it tracks the host's disk as
well as the code; the cell count is chosen so every timed arm runs
for at least a second, in full and ``--quick`` mode alike. Exact
fsync and file counts are pinned in the tier-1 tests instead.

Methodology matches ``bench_store.py``: every measurement runs in a
fresh child interpreter (clean memoizers and metrics), repetitions are
interleaved so both arms see the same machine drift, and the per-arm
minimum wall is reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_overhead.py            # full run
    PYTHONPATH=src python benchmarks/bench_overhead.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_overhead.py --output /tmp/b.json

Standalone script (not a pytest benchmark): each measurement needs its
own child interpreter and environment; it defines no ``test_``
functions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import subprocess
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Where the results land (the committed perf baseline).
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_overhead.json"

#: JSON layout version, checked by :mod:`repro.harness.perfbaseline`.
FORMAT_VERSION = 1

#: Cells per campaign: enough that the fast arm runs for at least a
#: second; the quick mode differs only in its repetitions.
CELLS = 20_000

#: Group-commit batch size of the fast arm.
BATCH_ENTRIES = 64

MODES = ("off", "percell", "grouped")


class OverheadCell:
    """Near-free cell: all its cost is the control plane's.

    The value carries floats (including non-dyadic ones) so the
    fingerprint comparison would catch any lossy round-trip through
    the journal or the cache.
    """

    def __init__(self, index: int):
        self.index = index

    @property
    def label(self) -> str:
        return f"overhead[{self.index}]"

    def cache_token(self):
        return {"kind": "bench-overhead", "index": self.index}

    def execute(self):
        i = self.index
        return {"index": i, "seventh": (i + 1) / 7.0, "third": (i + 1) / 3.0}

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return value

    @staticmethod
    def decode(payload):
        return payload


def _engine(mode: str, root: Path):
    from repro.harness.exec import ExecutionEngine, ResultCache
    from repro.harness.journal import RunJournal

    if mode == "off":
        return ExecutionEngine(jobs=1)
    if mode == "percell":
        journal = RunJournal(root / "journal.jsonl", batch_entries=1)
    else:
        journal = RunJournal(
            root / "journal.jsonl",
            batch_entries=BATCH_ENTRIES,
            linger_seconds=0.05,
        )
    return ExecutionEngine(
        jobs=1, cache=ResultCache(root / "cache"), journal=journal
    )


def _assert_invariant(engine) -> dict:
    snap = engine.telemetry.snapshot()
    if (
        snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
        != snap["total"]
    ):
        raise AssertionError(f"telemetry invariant violated: {snap}")
    return snap


def run_overhead(mode: str) -> dict:
    """Execute the campaign once (plus a warm re-run for cached arms)."""
    cells = [OverheadCell(i) for i in range(CELLS)]
    root = Path(tempfile.mkdtemp(prefix=f"bench-overhead-{mode}-"))
    try:
        engine = _engine(mode, root)
        start = time.perf_counter()
        outcomes = engine.run(cells, campaign="bench-overhead")
        wall = time.perf_counter() - start
        if not all(o.status == "computed" for o in outcomes):
            bad = [o.label for o in outcomes if o.status != "computed"]
            raise AssertionError(f"cells did not compute: {bad}")
        _assert_invariant(engine)
        fingerprint = {
            o.cell.label: OverheadCell.encode(o.value) for o in outcomes
        }
        report = {
            "wall": wall,
            "cells": len(cells),
            "fingerprint": fingerprint,
        }
        if mode != "off":
            # Warm re-run against the same cache: every cell must hit,
            # with values identical to the cold pass — the packed cache
            # round-trips everything it absorbed.
            warm_engine = _engine(mode, root)
            start = time.perf_counter()
            warm_outcomes = warm_engine.run(cells, campaign="bench-overhead")
            report["warm_wall"] = time.perf_counter() - start
            snap = _assert_invariant(warm_engine)
            if snap["hit"] != len(cells):
                raise AssertionError(
                    f"warm {mode} run missed the cache: {snap}"
                )
            warm_fingerprint = {
                o.cell.label: OverheadCell.encode(o.value)
                for o in warm_outcomes
            }
            if warm_fingerprint != fingerprint:
                raise AssertionError(f"warm {mode} values diverge from cold")
        return report
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _child_main(args) -> int:
    report = run_overhead(args.mode)
    json.dump(report, sys.stdout)
    return 0


def _measure(mode: str) -> dict:
    env = dict(os.environ)
    for name in (
        "REPRO_JOBS",
        "REPRO_CACHE",
        "REPRO_CACHE_DIR",
        "REPRO_JOURNAL",
        "REPRO_RESUME",
        "REPRO_FAULTS",
        "REPRO_PRECOMPUTE",
        "REPRO_STORE_DIR",
        "REPRO_TRACE",
        "REPRO_METRICS",
        "REPRO_PROFILE",
    ):
        env.pop(name, None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    command = [sys.executable, str(Path(__file__).resolve()), "--child", mode]
    result = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=3600
    )
    if result.returncode != 0:
        raise AssertionError(f"{mode} campaign failed:\n{result.stderr}")
    return json.loads(result.stdout)


def bench_overhead(reps: int) -> dict:
    walls: dict[str, list[float]] = {"percell": [], "grouped": []}
    warm_walls: dict[str, list[float]] = {"percell": [], "grouped": []}
    fingerprints: list = []

    # The no-I/O floor runs once: it only anchors the overhead numbers.
    off = _measure("off")
    cells = off["cells"]
    fingerprints.append(("off", off["fingerprint"]))
    print(
        f"  off (no journal/cache) {off['wall']:6.2f}s "
        f"({cells / off['wall']:8.0f} cells/s)",
        flush=True,
    )

    for rep in range(reps):
        for mode in ("percell", "grouped"):
            report = _measure(mode)
            walls[mode].append(report["wall"])
            warm_walls[mode].append(report["warm_wall"])
            fingerprints.append((mode, report["fingerprint"]))
            print(
                f"  rep {rep + 1}/{reps} {mode:8s} {report['wall']:6.2f}s "
                f"({cells / report['wall']:8.0f} cells/s)  "
                f"warm {report['warm_wall']:5.2f}s",
                flush=True,
            )

    reference = fingerprints[0][1]
    identical = all(fp == reference for _, fp in fingerprints)
    if not identical:
        divergent = sorted(
            {mode for mode, fp in fingerprints if fp != reference}
        )
        raise AssertionError(f"results diverge across arms: {divergent}")

    percell = min(walls["percell"])
    grouped = min(walls["grouped"])
    percell_warm = min(warm_walls["percell"])
    grouped_warm = min(warm_walls["grouped"])
    return {
        "campaign": {
            "cells": cells,
            "jobs": 1,
            "batch_entries": BATCH_ENTRIES,
            "host_cores": os.cpu_count(),
        },
        "off": {
            "seconds": off["wall"],
            "cells_per_sec": cells / off["wall"],
        },
        "percell": {
            "seconds": percell,
            "cells_per_sec": cells / percell,
            "warm_seconds": percell_warm,
            "identical": identical,
        },
        "grouped": {
            "seconds": grouped,
            "cells_per_sec": cells / grouped,
            # The headline: what group commit buys on a
            # control-plane-bound campaign.
            "speedup": percell / grouped,
            "warm_seconds": grouped_warm,
            "identical": identical,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark control-plane overhead: per-cell journal "
        "fsync vs group commit, both over the packed result cache."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer repetitions of the same campaign, so "
        "the speedup stays comparable to the committed full-run baseline",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="interleaved repetitions per arm (default: 3, or 2 with --quick)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"result JSON path (default: {DEFAULT_OUTPUT})",
    )
    # Internal: run one campaign in this process and print its report.
    parser.add_argument("--child", dest="mode", choices=MODES)
    args = parser.parse_args(argv)
    if args.mode:
        return _child_main(args)

    reps = args.reps or (2 if args.quick else 3)
    print(
        f"control-plane overhead (trivial cells, jobs=1, min of {reps}):",
        flush=True,
    )
    results = bench_overhead(reps)

    for mode in ("percell", "grouped"):
        entry = results[mode]
        speedup = (
            f"  speedup={entry['speedup']:5.2f}x" if "speedup" in entry else ""
        )
        print(
            f"  {mode:8s} {entry['seconds']:6.2f}s "
            f"({entry['cells_per_sec']:8.0f} cells/s){speedup}",
            flush=True,
        )

    payload = {
        "format": FORMAT_VERSION,
        "kind": "overhead",
        "quick": args.quick,
        "reps": reps,
        **results,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
