"""Kernel microbenchmarks: batched vs reference simulation kernel.

Measures the two layers the batched kernel optimizes and writes the
results to ``BENCH_kernel.json`` at the repository root:

* **raw cache kernel** — ``access_run`` over a fixed synthetic trace on
  the compiled-walk :class:`~repro.sim.cache.SetAssociativeCache`
  versus the list-based
  :class:`~repro.sim.cache.ReferenceSetAssociativeCache`, in ns/access;
* **end-to-end single cell** — one ``(mix, scheme)`` simulation cell per
  scheme under the ``bench`` profile
  (:data:`~repro.harness.runconfig.BENCH`), run with
  ``REPRO_SIM_KERNEL=reference`` and ``=batched``, asserting the two
  kernels produce bit-identical results before reporting the speedup.

Methodology: wall-clock on a shared machine is noisy, so each
measurement interleaves reference/batched repetitions (ref, bat, ref,
bat, ...) and reports the per-mode minimum — the interleaving exposes
both modes to the same drift, and the minimum estimates the uncontended
cost. The recorded *speedups* (reference/batched on the same host) are
the machine-independent quantity that the perf regression check
(:mod:`repro.harness.perfbaseline`, CI ``perf-smoke`` job) compares
against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full run
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernel.py --output /tmp/b.json

This is a standalone script, not a pytest benchmark: it must control
kernel selection through the environment and interleave whole
simulations, which does not fit the one-shot ``benchmark.pedantic``
cells of the other drivers (and it defines no ``test_`` functions, so
pytest collects nothing from it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.cache import (  # noqa: E402
    ReferenceSetAssociativeCache,
    SetAssociativeCache,
)
from repro.sim.kernelmode import KERNEL_ENV  # noqa: E402

#: Where the results land (the committed perf baseline).
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernel.json"

#: Schemes timed end-to-end (Table 4's four organizations).
SCHEMES = ("static", "shared", "time", "untangle")

#: JSON layout version, checked by :mod:`repro.harness.perfbaseline`.
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Raw cache kernel
# ----------------------------------------------------------------------
def synthetic_trace(accesses: int, seed: int = 2023) -> np.ndarray:
    """A fixed LLC-like trace: hot working set + streaming misses.

    80% of accesses draw from a hot set comparable to the cache capacity
    (mostly hits, exercising the recency update), 20% stream through a
    large cold range (misses + evictions).
    """
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 3_000, size=accesses)
    cold = rng.integers(100_000, 1_000_000, size=accesses)
    pick_cold = rng.random(accesses) < 0.2
    return np.where(pick_cold, cold, hot).astype(np.int64)


def bench_raw_kernel(accesses: int, reps: int) -> dict:
    """Time ``access_run`` on both cache implementations, interleaved."""
    num_sets, associativity = 256, 8  # the scaled 2048-line LLC
    addrs = synthetic_trace(accesses)
    timings: dict[str, list[float]] = {"reference": [], "batched": []}
    hits: dict[str, int] = {}
    for _ in range(reps):
        for mode, cls in (
            ("reference", ReferenceSetAssociativeCache),
            ("batched", SetAssociativeCache),
        ):
            cache = cls(num_sets, associativity)
            start = time.perf_counter()
            hit_mask, _ = cache.access_run(addrs)
            timings[mode].append(time.perf_counter() - start)
            hits[mode] = int(np.count_nonzero(hit_mask))
    if hits["reference"] != hits["batched"]:
        raise AssertionError(
            f"raw kernels disagree: reference {hits['reference']} hits, "
            f"batched {hits['batched']} hits"
        )
    ref = min(timings["reference"])
    bat = min(timings["batched"])
    return {
        "num_sets": num_sets,
        "associativity": associativity,
        "accesses": accesses,
        "hits": hits["batched"],
        "reference_ns_per_access": ref / accesses * 1e9,
        "batched_ns_per_access": bat / accesses * 1e9,
        "speedup": ref / bat,
    }


# ----------------------------------------------------------------------
# End-to-end single cell per scheme
# ----------------------------------------------------------------------
def _run_cell(pairs, scheme, profile, mode: str):
    """One simulation cell under the given kernel; returns (seconds, result).

    The process L1 trace memo is cleared first, so every batched cell
    pays its own cold trace walk instead of reusing walks made by
    earlier repetitions and schemes.
    """
    from repro.harness import experiment

    experiment._L1_TRACE_MEMO.clear()
    os.environ[KERNEL_ENV] = mode
    try:
        start = time.perf_counter()
        result = experiment.run_mix_scheme(pairs, scheme, profile)
        return time.perf_counter() - start, result
    finally:
        os.environ.pop(KERNEL_ENV, None)


def _fingerprint(result) -> dict:
    """Everything the equivalence claim covers, JSON-able for the report."""
    return {
        "total_cycles": result.total_cycles,
        "ipc": [w.ipc for w in result.workloads],
        "leakage_bits": [w.leakage_bits for w in result.workloads],
        "assessments": [w.assessments for w in result.workloads],
    }


def bench_end_to_end(mix_id: int, num_pairs: int, reps: int) -> dict:
    from repro.harness.runconfig import BENCH
    from repro.schemes.untangle import get_rate_table
    from repro.workloads.mixes import get_mix

    pairs = get_mix(mix_id)[:num_pairs]
    # The Dinkelbach solver behind Untangle's rate table runs once per
    # process (~seconds) and is lru_cached; warm it so neither mode's
    # first repetition pays it inside the timed region.
    get_rate_table(BENCH.cooldown)

    cells: dict[str, dict] = {}
    for scheme in SCHEMES:
        ref_times: list[float] = []
        bat_times: list[float] = []
        ref_result = bat_result = None
        for _ in range(reps):
            seconds, ref_result = _run_cell(pairs, scheme, BENCH, "reference")
            ref_times.append(seconds)
            seconds, bat_result = _run_cell(pairs, scheme, BENCH, "batched")
            bat_times.append(seconds)
        identical = _fingerprint(ref_result) == _fingerprint(bat_result)
        if not identical:
            raise AssertionError(
                f"kernels diverge on scheme {scheme!r}: "
                f"reference {_fingerprint(ref_result)} vs "
                f"batched {_fingerprint(bat_result)}"
            )
        ref = min(ref_times)
        bat = min(bat_times)
        cells[scheme] = {
            "reference_seconds": ref,
            "batched_seconds": bat,
            "speedup": ref / bat,
            "identical": identical,
            "fingerprint": _fingerprint(bat_result),
        }
        print(
            f"  {scheme:10s} ref={ref:6.2f}s bat={bat:6.2f}s "
            f"speedup={ref / bat:5.2f}x identical={identical}",
            flush=True,
        )
    return {
        "profile": BENCH.name,
        "mix": mix_id,
        "pairs": num_pairs,
        "cells": cells,
    }


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the batched simulation kernel vs the reference."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer repetitions and a shorter raw trace "
        "(same simulation cells, so speedups stay comparable)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="interleaved reference/batched repetitions per measurement "
        "(default: 3, or 2 with --quick)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"result JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    reps = args.reps or (2 if args.quick else 3)
    accesses = 50_000 if args.quick else 200_000

    print(f"raw cache kernel ({accesses} accesses, min of {reps}):", flush=True)
    raw = bench_raw_kernel(accesses, reps)
    print(
        f"  reference {raw['reference_ns_per_access']:7.1f} ns/access   "
        f"batched {raw['batched_ns_per_access']:7.1f} ns/access   "
        f"speedup={raw['speedup']:5.2f}x",
        flush=True,
    )

    print(f"end-to-end cells (profile=bench, min of {reps}):", flush=True)
    end_to_end = bench_end_to_end(mix_id=1, num_pairs=4, reps=reps)

    payload = {
        "format": FORMAT_VERSION,
        "quick": args.quick,
        "reps": reps,
        "raw_kernel": raw,
        "end_to_end": end_to_end,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
