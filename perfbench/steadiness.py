"""Run two sets of the benchmark on the same code and compare them.

Usage, from the repository root::

    python3 perfbench/steadiness.py [--runs 10] [--workloads NAME ...]

Each of the two sets runs every workload once per seed (seeds 1 to
``--runs``, the same seeds in both sets), strictly one run at a time,
through the command in ``BENCHMARK.json``. For every
end-to-end metric of every workload it prints each set's median and
quartiles, the spread (interquartile distance over the median) and the
relative gap between the two medians in the metric's worse direction,
against the metric's bound. A spread above a third of the bound is
marked ``noisy``; a spread or gap above the bound is ``OVER``. Each
run's full output, with its iterations' load averages and probe times,
is kept in ``perfbench/.work/steadiness/``.
Exit status 1 when any run failed its checks or any figure is over its
bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from measure import quartiles, spread


#: Each run's full stdout (iteration lines with load and probe) goes here.
LOGS = Path(__file__).resolve().parent / ".work" / "steadiness"


def run_once(bench: dict, workload: str, seed: int, log: Path) -> dict | None:
    argv = [
        *bench["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    log.write_text(proc.stdout + proc.stderr)
    result = parse_result(proc.stdout)
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return result


def parse_result(stdout: str) -> dict | None:
    """The JSON object on the last line of a run's stdout, if any."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def gap(first: list[float], second: list[float], better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    m1, m2 = quartiles(first)[1], quartiles(second)[1]
    worse = m2 - m1 if better == "lower" else m1 - m2
    return worse / m1 if m1 else 0.0


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set per workload")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)

    # values[workload][metric] -> one list of run values per set
    values: dict = defaultdict(lambda: defaultdict(lambda: ([], [])))
    failures = 0
    LOGS.mkdir(parents=True, exist_ok=True)
    for set_index in range(2):
        for seed in range(1, args.runs + 1):
            for workload in args.workloads:
                log = LOGS / f"set{set_index + 1}-{workload}-seed{seed}.txt"
                result = run_once(bench, workload, seed, log)
                if result is None:
                    failures += 1
                    print(f"set {set_index + 1} {workload} seed {seed}: FAILED", flush=True)
                    continue
                for metric, entry in result["metrics"].items():
                    values[workload][metric][set_index].append(entry["value"])
                print(
                    f"set {set_index + 1} {workload} seed {seed}: "
                    + " ".join(f"{m}={e['value']:.4f}" for m, e in result["metrics"].items()),
                    flush=True,
                )

    over = 0
    for workload in args.workloads:
        print(f"\n{workload}")
        for metric in bench["end_to_end"]:
            sets = values[workload][metric["name"]]
            if not all(sets):
                print(f"  {metric['name']}: no values")
                over += 1
                continue
            bound = metric["bound"]
            cells = []
            for set_values in sets:
                q1, q2, q3 = quartiles(set_values)
                s = spread(set_values)
                flag = "OVER" if s > bound else "noisy" if s > bound / 3 else "ok"
                if s > bound:
                    over += 1
                cells.append(f"median {q2:.4f} [{q1:.4f}, {q3:.4f}] spread {s:6.1%} {flag}")
            g = gap(sets[0], sets[1], metric["better"])
            if g > bound:
                over += 1
            print(
                f"  {metric['name']:12s} {metric['unit']:8s} bound {bound:.0%}  "
                + " | ".join(cells)
                + f" | gap {g:+.1%} {'OVER' if g > bound else 'ok'}"
            )
    print(f"\n{failures} failed runs, {over} figures over their bound")
    return 1 if failures or over else 0


if __name__ == "__main__":
    sys.exit(main())
