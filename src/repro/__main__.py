"""Command-line entry point: ``python -m repro <command>``.

Runs the paper's experiments from a terminal without writing any code:

* ``python -m repro mix 1``              — one figure group (Figure 10 style)
* ``python -m repro mix 1 --schemes static threshold``  — ad-hoc scheme set
* ``python -m repro sensitivity``        — Figure 11 (all 36 benchmarks)
* ``python -m repro table6``             — Table 6 (mixes 1-4)
* ``python -m repro rmax``               — Appendix A rate table
* ``python -m repro scenario spec.toml`` — run a declarative scenario file
* ``python -m repro conform --all``      — scheme conformance battery
* ``python -m repro mix 1 --profile test``  — faster, smaller profile

Scheme names everywhere (``--schemes``, scenario files) resolve through
the plugin registry (``repro.registry``), so third-party schemes
registered via ``repro.plugins`` entry points are first-class citizens
of every command, including ``conform``.

Simulation commands accept ``--jobs N`` to fan independent simulation
cells out over a process pool and cache results on disk under
``--cache-dir`` (default ``.repro-cache``; ``--no-cache`` disables).
``--jobs 1`` — the default — is the serial debugging fallback; results
are bit-identical either way. ``--telemetry`` prints the engine's cache
and timing counters to stderr afterwards.

Parallel runs dispatch one cell at a time from one shared queue ordered
longest-expected-first from journal runtime history; every idle worker
takes the front cell (see ``docs/performance.md``).

Cells additionally share a cross-cell *precompute store*
(``docs/performance.md``): workload traces and Untangle rate tables are
computed once per campaign at ``<cache-dir>/store`` (or
``REPRO_STORE_DIR``) and attached zero-copy by every worker.
``--no-precompute-store`` (or ``REPRO_PRECOMPUTE=off``) forces the
legacy rebuild-per-cell path; the store is independent of the result
cache, so ``--no-cache`` alone still shares traces while re-simulating
every cell.

Fault tolerance: every finished cell is journaled to
``<cache-dir>/journal.jsonl``; an interrupted (Ctrl-C / SIGTERM) or
killed campaign re-run with ``--resume`` (or ``REPRO_RESUME=1``)
replays journaled cells and simulates only what never completed.
``--retries`` bounds per-cell retry attempts and ``--timeout`` sets the
per-cell deadline after which a hung worker is killed and respawned;
``--heartbeat`` tunes the worker liveness beats that let the supervisor
tell slow from hung mid-cell (see ``docs/robustness.md``). Each flag
wins over its environment variable (``REPRO_RETRIES``,
``REPRO_TIMEOUT``, ``REPRO_HEARTBEAT``); ``REPRO_STALL_TIMEOUT`` sets
the stall-kill deadline. A campaign
that completes with failed or poisoned cells exits non-zero, prints a
per-cell failure summary, and renders ``<cache-dir>/failures.json``.
``REPRO_FAULTS`` injects crashes/hangs/stalls/corruption/disk errors
for chaos runs (see ``repro.harness.faults``).

Observability (``docs/observability.md``): ``--trace PATH`` (or
``REPRO_TRACE``) appends structured spans/events for every cell,
worker, journal append, and simulation run to a JSONL sink;
``--metrics-out PATH`` (or ``REPRO_METRICS``) writes a Prometheus-style
metrics textfile plus a JSON snapshot when the command finishes.
``python -m repro trace-summarize trace.jsonl`` renders the per-phase
wall-time breakdown of a recorded trace.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.errors import CampaignInterrupted, ConfigurationError
from repro.harness.exec import (
    ExecutionEngine,
    ResultCache,
    supervision_from_env,
)
from repro.harness.store import (
    PRECOMPUTE_ENV,
    STORE_DIR_ENV,
    PrecomputeStore,
    precompute_from_env,
    switch_from_env,
)
from repro.harness.faults import faults_from_env
from repro.harness.journal import RunJournal, batching_from_env
from repro.harness.experiment import run_mix
from repro.harness.profiling import PROFILE_DIR_ENV, PROFILE_ENV
from repro.harness.figures import figure_group
from repro.harness.report import (
    render_conformance,
    render_figure_group,
    render_mix_result,
    render_scenario,
    render_sensitivity,
    render_table6,
    render_telemetry,
)
from repro.harness.runconfig import PROFILES
from repro.registry import scheme_names
from repro.harness.sensitivity import run_sensitivity_study
from repro.harness.tables import table6
from repro.obs import configure_tracing
from repro.obs.metrics import export_metrics
from repro.obs.summarize import render_summary, summarize_trace


def _jobs_count(text: str) -> int:
    """``--jobs`` value: >= 1 workers, or 0 meaning one per CPU."""
    jobs = int(text)
    if jobs < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = one per CPU)")
    return jobs if jobs else (os.cpu_count() or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the Untangle (ASPLOS 2023) evaluation.",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="scaled",
        help="experiment scale (default: scaled)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help=(
            "worker processes for simulation cells "
            "(default: 1 = serial; 0 = one per CPU)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="on-disk result cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the on-disk result cache (the precompute store "
            "stays on — use --no-precompute-store to disable it too)"
        ),
    )
    parser.add_argument(
        "--no-precompute-store",
        action="store_true",
        help=(
            "disable the cross-cell precompute store and rebuild every "
            "workload trace / rate table per cell (legacy path; also: "
            "REPRO_PRECOMPUTE=off)"
        ),
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="print engine cache/timing counters to stderr",
    )
    parser.add_argument(
        "--cprofile",
        default=None,
        metavar="CELL",
        help=(
            "cProfile one simulation cell — the first whose label "
            "contains CELL, or the first cell run with CELL=all — and "
            "write profile-<cell>.pstats beside the cache dir "
            "(also: REPRO_PROFILE=CELL)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "append structured trace spans/events (cells, workers, "
            "journal, simulation runs) to a JSONL file at PATH "
            "(also: REPRO_TRACE=PATH; REPRO_TRACE=1 writes trace.jsonl "
            "beside the cache dir)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write a Prometheus-style metrics textfile to PATH (plus a "
            "PATH.json snapshot) when the command finishes "
            "(also: REPRO_METRICS=PATH)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay cells journaled by a previous (possibly interrupted) "
            "run instead of re-simulating them (also: REPRO_RESUME=1)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help=(
            "retry budget per failed/crashed/hung cell (default: 1; "
            "also: REPRO_RETRIES)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell deadline; a parallel worker past it is killed and "
            "respawned (default: none; also: REPRO_TIMEOUT). With "
            "heartbeats on it bounds inactivity: progress-carrying beats "
            "extend it"
        ),
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "worker liveness heartbeat interval; lets the supervisor "
            "tell slow from hung mid-cell (default: 1; 0 disables; "
            "also: REPRO_HEARTBEAT)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mix = commands.add_parser("mix", help="run one workload mix (Figures 10/12-17)")
    mix.add_argument("mix_id", type=int, choices=range(1, 17))
    mix.add_argument(
        "--schemes",
        nargs="+",
        choices=scheme_names(),
        default=None,
        metavar="SCHEME",
        help=(
            "registry scheme names to run instead of the default "
            "campaign set (registered: " + ", ".join(scheme_names()) + ")"
        ),
    )

    scenario = commands.add_parser(
        "scenario",
        help="run a declarative scenario spec (TOML/JSON; docs/scenarios.md)",
    )
    scenario.add_argument("spec_path", help="scenario file (.toml or .json)")

    conform = commands.add_parser(
        "conform",
        help=(
            "scheme conformance battery: P1/P2 principles, action-leakage, "
            "kernel bit-identity, trace sharing, store tokens, telemetry"
        ),
    )
    conform.add_argument(
        "schemes",
        nargs="*",
        metavar="SCHEME",
        help="schemes to check (default: every registered scheme)",
    )
    conform.add_argument(
        "--all",
        action="store_true",
        help="check every registered scheme plus registration drift",
    )
    conform.add_argument(
        "--quick",
        action="store_true",
        help="small workload-pair set (the default; CI speed)",
    )
    conform.add_argument(
        "--full",
        action="store_true",
        help="extended workload-pair set (slower, broader coverage)",
    )
    conform.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="test",
        help=(
            "profile for conformance runs (default: test — the checks "
            "are differential properties, not performance measurements)"
        ),
    )

    commands.add_parser(
        "sensitivity", help="LLC sensitivity study of all 36 benchmarks (Figure 11)"
    )
    commands.add_parser("table6", help="leakage summary of mixes 1-4 (Table 6)")

    rmax = commands.add_parser(
        "rmax", help="compute the R_max table (Appendix A / Section 7)"
    )
    rmax.add_argument(
        "--capacity", type=int, default=16, help="table capacity (Maintain levels)"
    )

    summarize = commands.add_parser(
        "trace-summarize",
        help="per-phase wall-time breakdown of a trace JSONL (--trace output)",
    )
    summarize.add_argument("trace_path", help="trace JSONL file to summarize")
    return parser


def build_engine(args: argparse.Namespace) -> ExecutionEngine:
    """The execution engine requested on the command line.

    The crash-recovery journal rides with the cache directory
    (``<cache-dir>/journal.jsonl``); ``--no-cache`` disables both.
    ``REPRO_RESUME=1`` and ``REPRO_FAULTS`` are honored alongside the
    flags so chaos/recovery behavior can be driven from the environment,
    as are ``REPRO_RETRIES``, ``REPRO_TIMEOUT``, ``REPRO_HEARTBEAT`` and
    ``REPRO_STALL_TIMEOUT`` (a flag wins over its variable).

    The precompute store (``docs/performance.md``) lives at
    ``<cache-dir>/store`` (or ``REPRO_STORE_DIR``) and is *independent*
    of the result cache: ``--no-cache`` re-simulates every cell but
    still shares workload traces and rate tables across them, while
    ``--no-precompute-store`` / ``REPRO_PRECOMPUTE=off`` forces the
    legacy rebuild-per-cell path. Passing ``--no-precompute-store``
    while the environment explicitly enables the store is rejected as a
    conflict.
    """
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.no_cache:
        journal = None
    else:
        batch_entries, linger_seconds = batching_from_env()
        journal = RunJournal(
            Path(args.cache_dir) / "journal.jsonl",
            batch_entries=batch_entries,
            linger_seconds=linger_seconds,
        )
    store = None
    raw_precompute = os.environ.get(PRECOMPUTE_ENV, "").strip().lower()
    if args.no_precompute_store:
        if raw_precompute and precompute_from_env():
            raise ConfigurationError(
                f"--no-precompute-store conflicts with "
                f"{PRECOMPUTE_ENV}={os.environ.get(PRECOMPUTE_ENV)!r}; "
                "accepted: drop the flag, or set "
                f"{PRECOMPUTE_ENV}=off (or unset it)"
            )
        # Through the environment so cells — serial or in workers — take
        # the legacy build path even if REPRO_STORE_DIR is set.
        os.environ[PRECOMPUTE_ENV] = "off"
    elif precompute_from_env():
        store_dir = os.environ.get(STORE_DIR_ENV) or (
            Path(args.cache_dir) / "store"
        )
        store = PrecomputeStore(store_dir)
    resume = args.resume or switch_from_env("REPRO_RESUME", default=False)
    progress = (
        (lambda line: print(line, file=sys.stderr)) if args.telemetry else None
    )
    return ExecutionEngine(
        jobs=args.jobs,
        cache=cache,
        journal=journal,
        resume=resume,
        faults=faults_from_env(),
        progress=progress,
        store=store,
        **supervision_from_env(
            retries=args.retries,
            timeout=args.timeout,
            heartbeat=args.heartbeat,
        ),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace-summarize":
        try:
            summary = summarize_trace(args.trace_path)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_summary(summary))
        return 0
    if args.command == "conform":
        return _run_conform(args)
    profile = PROFILES[args.profile]
    if args.cprofile:
        # Workers inherit the environment, so the request reaches the
        # cell wherever it executes; the stats land beside the cache dir.
        os.environ[PROFILE_ENV] = args.cprofile
        os.environ.setdefault(
            PROFILE_DIR_ENV, str(Path(args.cache_dir).resolve().parent)
        )
    if args.trace:
        # Through the environment so forked/spawned workers inherit it.
        configure_tracing(args.trace)
    try:
        engine = build_engine(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "mix":
            schemes = _dedup(args.schemes) if args.schemes else None
            result = run_mix(args.mix_id, profile, schemes, engine=engine)
            if schemes is None:
                group = figure_group(args.mix_id, profile, mix_result=result)
                print(render_figure_group(group))
            else:
                # An ad-hoc scheme set need not contain the figure's
                # static/time/untangle columns; render the plain table.
                print(render_mix_result(result))
        elif args.command == "scenario":
            from repro.registry.scenario import load_scenario, run_scenario

            spec = load_scenario(args.spec_path)
            result = run_scenario(spec, base_profile=profile, engine=engine)
            print(render_scenario(result))
        elif args.command == "sensitivity":
            curves = run_sensitivity_study(profile=profile, engine=engine)
            print(render_sensitivity(curves))
        elif args.command == "table6":
            print(render_table6(table6(profile, engine=engine)))
        elif args.command == "rmax":
            from repro.core.rates import RmaxTable
            from repro.schemes.untangle import default_channel_model

            model = default_channel_model(profile.cooldown)
            table = RmaxTable(model, capacity=args.capacity)
            print(f"R_max table (T_c = {profile.cooldown} cycles):")
            for entry in table.entries():
                print(
                    f"  m={entry.maintains:3d}  "
                    f"rate={entry.rate_upper_bound * profile.cooldown:8.4f} bits/T_c  "
                    f"bits/tx={entry.bits_per_transmission:6.3f}"
                )
    except CampaignInterrupted as exc:
        print(f"\n{exc}", file=sys.stderr)
        if engine.telemetry.cells:
            print(render_telemetry(engine.telemetry), file=sys.stderr)
        _write_metrics(args)
        return 130
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Rendering needs every cell's result; with failed/poisoned
        # cells it can legitimately come up short (e.g. a figure's
        # scheme run missing). That is the campaign's failure story —
        # tell it via the per-cell summary below, not a traceback. A
        # rendering crash on a fully green campaign is a real bug.
        if not _failing_records(engine):
            raise
        print(
            f"error: cannot render output ({type(exc).__name__}: {exc}) "
            "— campaign results are incomplete",
            file=sys.stderr,
        )
    if args.telemetry and engine.telemetry.cells:
        print(render_telemetry(engine.telemetry), file=sys.stderr)
    _write_metrics(args)
    return _campaign_exit_status(engine)


def _dedup(names: list[str]) -> tuple[str, ...]:
    """Order-preserving dedup (``--schemes static static`` runs one cell)."""
    return tuple(dict.fromkeys(names))


def _run_conform(args: argparse.Namespace) -> int:
    """``python -m repro conform``: the scheme conformance battery.

    Runs without the execution engine — the checks construct their own
    single-domain systems and throwaway engines. Exit status: 0 when
    every check passes (or skips), 1 on any failure, 2 on bad usage.
    """
    from repro.registry.conformance import run_all

    if args.quick and args.full:
        print("error: --quick and --full conflict", file=sys.stderr)
        return 2
    names = list(_dedup(args.schemes))
    if args.all and names:
        print(
            "error: give scheme names or --all, not both", file=sys.stderr
        )
        return 2
    known = scheme_names()
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(
            f"error: unregistered scheme(s): {', '.join(unknown)} "
            f"(registered: {', '.join(known)})",
            file=sys.stderr,
        )
        return 2
    # Bare ``conform`` behaves like ``--all``: every registered scheme,
    # plus the registration-drift detector. Named schemes skip drift —
    # the caller asked about specific schemes, not registry hygiene.
    reports = run_all(
        schemes=names or None,
        profile=PROFILES[args.profile],
        quick=not args.full,
        drift=not names,
    )
    print(render_conformance(reports))
    return 0 if all(report.ok for report in reports) else 1


def _failing_records(engine: ExecutionEngine) -> list:
    return [
        r
        for r in engine.telemetry.records
        if r.status in ("failed", "poisoned")
    ]


def _campaign_exit_status(engine: ExecutionEngine) -> int:
    """0 for a fully successful campaign, 1 when any cell failed.

    A campaign with failed/poisoned cells used to exit 0 — silently
    green in CI and shell scripts even though results were missing from
    the rendered figures. The per-cell summary names each casualty, and
    the failure manifest / resume hint say how to retry them.
    """
    failing = _failing_records(engine)
    if not failing:
        return 0
    print(
        f"error: {len(failing)} of {engine.telemetry.cells} cells did "
        "not complete:",
        file=sys.stderr,
    )
    for record in failing:
        print(
            f"  {record.status.upper()} {record.label} "
            f"(attempts={record.attempts}): {record.error}",
            file=sys.stderr,
        )
    if engine.manifest_path is not None:
        print(f"failure manifest: {engine.manifest_path}", file=sys.stderr)
    if engine.journal is not None:
        print(
            "re-run with --resume (or REPRO_RESUME=1) to re-attempt "
            "exactly these cells",
            file=sys.stderr,
        )
    return 1


def _write_metrics(args: argparse.Namespace) -> None:
    """Export the metrics registry if ``--metrics-out``/``REPRO_METRICS``."""
    written = export_metrics(args.metrics_out)
    if written is not None:
        text, snapshot = written
        print(f"[metrics] {text} (+ {snapshot})", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
