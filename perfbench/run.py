"""Run one benchmark workload against ``python -m repro`` and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table6-cold --seed 7 --seconds 30 --trace 0

One run, strictly one child process at a time:

1. an untimed warm-up: for a cold workload one small CLI run (a single
   test-profile cell on the same worker pool) that warms the bytecode
   and page caches; for ``replay-warm`` a private copy of the caches it
   replays, then one untimed replay. The caches are filled by cold runs
   once per source tree (keyed by a digest of ``src/``) and kept under
   ``perfbench/.work/fills/``, so later runs skip the fill;
2. ``setup_s`` samples: a fresh interpreter imports
   ``repro.__main__``, builds the workload's engines with
   ``build_parser``/``build_engine`` and exits;
3. timed iterations of the workload until ``--seconds`` have passed
   (at least one, and none that would end past 1.5 x ``--seconds``),
   each cold command into a fresh empty cache directory;
4. with ``--trace 1``, one more iteration through ``traced.py`` with the
   program's trace and metrics sinks on, which yields the per-layer
   metrics and the tracing overhead against the untraced median.

Every iteration is checked: exit status, the telemetry invariant
(computed + hit + replayed + failed = total), the expected cell counts
(cold: all simulated; warm: all hits), and the stdout sha256 against the
pinned digest (paper inputs) or, for held-back inputs, the scenario
rendering's shape. An iteration failing a check counts all its cells as
failed and its timings are discarded.

The end-to-end metrics are medians over the run's good iterations (and
set-up samples), each time scaled to a reference host speed by the
probes ``measure.HostProbe`` takes while the child is briefly stopped,
because the shared host's speed drifts by up to a third within minutes.
The unscaled medians and the scale factors are printed before the
metrics and, with ``--trace 1``, reported among the per-layer metrics,
so a comparison can check that scaled and unscaled figures move
together.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (cells) and ``metrics``. Exit status 0 when every check held,
1 when one failed, 2 when the repository is not found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import measure
import workloads as wl

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"
FILLS = WORK_ROOT / "fills"

#: Set-up samples per run; their median is ``setup_s``.
SETUP_SAMPLES = 15

#: Wall-clock budget of one run, which must end within 180 s.
RUN_BUDGET_S = 170.0

#: No timed iteration starts that would end, judged by the last one,
#: past this multiple of ``--seconds``: on a slow host a run then
#: measures one or two long iterations instead of overrunning.
OVERSHOOT = 1.5

SETUP_SNIPPET = (
    "import json, sys\n"
    "from repro.__main__ import build_engine, build_parser\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    build_engine(build_parser().parse_args(argv))\n"
)


@dataclass
class Iteration:
    label: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    load_before: float | None = None
    load_after: float = 0.0
    steal_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    telemetries: list[measure.Telemetry] = field(default_factory=list)
    stdouts: dict[str, bytes] = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)

    def add(self, run: measure.ChildRun) -> None:
        self.wall_s += run.wall_s
        self.cpu_s += run.cpu_s
        self.peak_rss_mb = max(self.peak_rss_mb, run.peak_rss_mb)
        if self.load_before is None:
            self.load_before = run.load_before
        self.load_after = run.load_after
        self.steal_s += run.steal_s
        self.probes += run.probes

    def describe(self) -> str:
        status = "ok" if not self.problems else "FAILED: " + "; ".join(self.problems)
        return (
            f"{self.label}: wall {self.wall_s:.3f} s, cpu {self.cpu_s:.3f} s, "
            f"probe {statistics.fmean(self.probes) * 1e3:.3f} ms, "
            f"rss {self.peak_rss_mb:.1f} MB, load {self.load_before:.2f} -> "
            f"{self.load_after:.2f}, steal {self.steal_s:.2f} s, {status}"
        )


class Runner:
    """Runs one workload's children inside its own work directory."""

    def __init__(self, root: Path, workload: wl.Workload, deadline: float):
        self.root = root
        self.workload = workload
        self.deadline = deadline
        self.work = WORK_ROOT / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = measure.child_env(root)
        self.specs = {c.name: c.write_spec(self.work) for c in workload.commands}
        self.fill_dirs = {c.name: self.work / f"fill-{c.name}" for c in workload.commands}
        self.problems: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, argv: list[str], label: str) -> measure.ChildRun:
        return measure.run_child(
            [sys.executable, *argv],
            cwd=self.work,
            env=self.env,
            log_stem=self.work / label,
            timeout=max(1.0, self.remaining()),
        )

    def run_command(
        self,
        command: wl.Command,
        cache: Path,
        label: str,
        cold: bool,
        trace_dir: Path | None = None,
    ) -> tuple[measure.ChildRun, measure.Telemetry | None, list[str]]:
        if trace_dir is None:
            prefix = ["-m", "repro"]
            extra: tuple[str, ...] = ()
        else:
            trace_path = str(trace_dir / "trace.jsonl")
            prefix = [str(HERE / "traced.py"), trace_path]
            extra = (
                "--trace",
                trace_path,
                "--metrics-out",
                str(trace_dir / f"{command.name}.prom"),
            )
        argv = command.argv(cache, self.specs[command.name], *extra)
        run = self.child([*prefix, *argv], label)
        telemetry = measure.parse_telemetry(run.stderr)
        problems = []
        if run.returncode != 0:
            problems.append(f"exit status {run.returncode}")
        problems += measure.telemetry_problems(telemetry, command.cells, cold)
        if command.digest is not None:
            problems += measure.digest_problems(run.stdout, command.digest)
        else:
            problems += measure.scenario_problems(run.stdout)
        return run, telemetry, [f"{command.name}: {p}" for p in problems]

    # -- phases ---------------------------------------------------------
    def warm_up(self) -> None:
        """Untimed: a small cold run, or a copy of the fill plus one replay."""
        if self.workload.cold:
            cache = self.work / "warmup-cache"
            run = self.child(
                [
                    "-m", "repro", "--profile", "test", "--jobs", str(wl.JOBS),
                    "--cache-dir", str(cache), "mix", "1", "--schemes", "static",
                ],
                "warmup",
            )
            shutil.rmtree(cache, ignore_errors=True)
            print(f"warm-up: small cold run, wall {run.wall_s:.3f} s")
            if run.returncode != 0:
                self.problems.append(f"warm-up: exit status {run.returncode}")
            return
        filled = self.filled_caches()
        if filled is None:
            return
        for command in self.workload.commands:
            shutil.copytree(filled / command.name, self.fill_dirs[command.name])
        replay = self.iteration("warmup")
        self.problems += [f"warm-up {p}" for p in replay.problems]
        print(f"warm-up: one untimed replay, wall {replay.wall_s:.3f} s")

    def filled_caches(self) -> Path | None:
        """Caches filled by cold runs of this source tree, made if missing."""
        filled = FILLS / source_digest(self.root)
        complete = filled / "complete"
        if complete.is_file():
            print(f"fill: reusing {filled.relative_to(HERE)}")
            return filled
        shutil.rmtree(FILLS, ignore_errors=True)
        ok = True
        for command in self.workload.commands:
            run, _, problems = self.run_command(
                command, filled / command.name, f"fill-{command.name}", True
            )
            self.problems += [f"fill {p}" for p in problems]
            ok = ok and not problems
            print(f"fill: cold {command.name} into its cache, wall {run.wall_s:.3f} s")
        if not ok:
            return None
        complete.touch()
        return filled

    def setup_samples(self) -> list[measure.ChildRun]:
        samples = []
        for index in range(SETUP_SAMPLES):
            label = f"setup{index}"
            caches = [self.cache_dir(c, label) for c in self.workload.commands]
            argvs = [
                command.argv(cache, self.specs[command.name])
                for command, cache in zip(self.workload.commands, caches)
            ]
            run = self.child(["-c", SETUP_SNIPPET, json.dumps(argvs)], label)
            self.drop_cold(caches)
            if run.returncode != 0:
                self.problems.append(f"setup sample: exit status {run.returncode}")
            samples.append(run)
        print("setup: " + " ".join(f"{s.wall_s:.4f}" for s in samples) + " s")
        return samples

    def cache_dir(self, command: wl.Command, label: str) -> Path:
        """A fresh empty cache (cold) or the filled one (warm)."""
        if not self.workload.cold:
            return self.fill_dirs[command.name]
        cache = self.work / f"{label}-{command.name}-cache"
        shutil.rmtree(cache, ignore_errors=True)
        return cache

    def drop_cold(self, caches: list[Path]) -> None:
        if self.workload.cold:
            for cache in caches:
                shutil.rmtree(cache, ignore_errors=True)

    def iteration(self, label: str, trace_dir: Path | None = None) -> Iteration:
        result = Iteration(label)
        for command in self.workload.commands:
            cache = self.cache_dir(command, label)
            run, telemetry, problems = self.run_command(
                command, cache, f"{label}-{command.name}", self.workload.cold, trace_dir
            )
            self.drop_cold([cache])
            result.add(run)
            result.problems += problems
            if telemetry is not None:
                result.telemetries.append(telemetry)
            result.stdouts[command.name] = run.stdout
        return result


def source_digest(root: Path) -> str:
    """sha256 prefix over the program's sources: names a reusable fill."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_metadata(seed: int) -> dict:
    """Host and toolchain facts that qualify every number of a run."""
    meta = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": "unknown",
        "blas": "unknown",
        "jobs": wl.JOBS,
        "cells": {name: wl.make_workload(name, seed).cells for name in wl.WORKLOAD_NAMES},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                meta["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        meta["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        pass
    return meta


def end_to_end_metrics(
    good: list[Iteration], setup: list[measure.ChildRun], cells: int
) -> dict[str, tuple[float, str]]:
    """Medians over a run, each time scaled to the reference host speed.

    Each iteration (and set-up sample) is scaled by the probes taken
    while it ran, so a change of host speed within a run is tracked.
    """
    wall = statistics.median(it.wall_s * measure.host_scale(it.probes) for it in good)
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (
            statistics.median(it.cpu_s * measure.host_scale(it.probes) for it in good),
            "s",
        ),
        "cells_per_s": (cells / wall, "cells/s"),
        "peak_rss_mb": (statistics.median(it.peak_rss_mb for it in good), "MB"),
        "setup_s": (
            statistics.median(run.wall_s * measure.host_scale(run.probes) for run in setup),
            "s",
        ),
    }


def unscaled_metrics(
    good: list[Iteration], setup: list[measure.ChildRun]
) -> dict[str, tuple[float, str]]:
    """The raw medians behind the scaled times, and the scale factors."""
    return {
        "unscaled.wall_s": (statistics.median(it.wall_s for it in good), "s"),
        "unscaled.cpu_s": (statistics.median(it.cpu_s for it in good), "s"),
        "unscaled.setup_s": (statistics.median(run.wall_s for run in setup), "s"),
        "probe.scale": (statistics.median(measure.host_scale(it.probes) for it in good), "ratio"),
        "probe.setup_scale": (
            statistics.median(measure.host_scale(run.probes) for run in setup),
            "ratio",
        ),
    }


def traced_metrics(
    traced: Iteration, trace_dir: Path, untraced_wall: float
) -> dict[str, tuple[float, str]]:
    snapshots = []
    for path in sorted(trace_dir.glob("*.prom.json")):
        snapshots.append(json.loads(path.read_text()))
    metrics = layers.layer_metrics(
        layers.load_spans(trace_dir / "trace.jsonl"),
        snapshots,
        chunks=sum(t.chunks for t in traced.telemetries),
        steals=sum(t.steals for t in traced.telemetries),
        jobs=wl.JOBS,
    )
    metrics["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    return metrics


def leak_reduction_line(iterations: list[Iteration]) -> str | None:
    """Table 6's simulated reduction beside the paper's value."""
    rendered = [it.stdouts["table6"] for it in iterations if "table6" in it.stdouts]
    if not rendered:
        return None
    value = measure.parse_leak_reduction(rendered[0])
    if value is None:
        return (
            "leak_reduction_pct: not rendered for held-back inputs (the "
            f"scenario table shows speedups); --seed {wl.PAPER_SEED} renders it"
        )
    error = value - wl.PAPER_LEAK_REDUCTION_PCT
    return (
        f"leak_reduction_pct: {value:.0f} % simulated (paper "
        f"{wl.PAPER_LEAK_REDUCTION_PCT:.0f} %, error {error:+.0f} points)"
    )


def print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")


def run(args: argparse.Namespace, root: Path) -> int:
    start = time.monotonic()
    workload = wl.make_workload(args.workload, args.seed)
    measure.become_subreaper()
    runner = Runner(root, workload, start + RUN_BUDGET_S)
    inputs = "paper" if args.seed == wl.PAPER_SEED else "held-back"
    print(f"perfbench {workload.name}: seed {args.seed} ({inputs} inputs), "
          f"{workload.cells} cells per iteration, trace {args.trace}")
    print("host: " + json.dumps(host_metadata(args.seed), sort_keys=True))

    runner.warm_up()
    setup = runner.setup_samples()
    iterations: list[Iteration] = []
    timed_from = time.monotonic()
    reserve = 2.0 if args.trace else 1.0
    while not iterations or (
        (elapsed := time.monotonic() - timed_from) < args.seconds
        and elapsed + iterations[-1].wall_s <= OVERSHOOT * args.seconds
        and runner.remaining() > reserve * 1.5 * iterations[-1].wall_s
    ):
        iterations.append(runner.iteration(f"iter{len(iterations) + 1}"))
        print(iterations[-1].describe())
    good = [it for it in iterations if not it.problems]
    metrics: dict[str, tuple[float, str]] = {}
    unscaled = unscaled_metrics(good, setup) if good else {}
    traced = None
    if args.trace:
        trace_dir = runner.work / "trace"
        trace_dir.mkdir()
        traced = runner.iteration("traced", trace_dir)
        print(traced.describe())
        if good and not traced.problems:
            untraced = statistics.median(it.wall_s for it in good)
            metrics = {**traced_metrics(traced, trace_dir, untraced), **unscaled}
    elif good:
        metrics = end_to_end_metrics(good, setup, workload.cells)
        print_metrics(unscaled)
    for path in runner.work.glob("fill-*"):
        shutil.rmtree(path, ignore_errors=True)

    measured = iterations + ([traced] if traced else [])
    failed = sum(workload.cells for it in measured if it.problems)
    problems = runner.problems + [p for it in measured for p in it.problems]
    correct = not problems and bool(metrics)
    leak = leak_reduction_line(measured)
    if leak:
        print(leak)
    for problem in problems:
        print(f"check failed: {problem}")
    print_metrics(metrics)
    result = {
        "correct": correct,
        "attempted": workload.cells * len(measured),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=wl.PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        print(
            "error: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
