"""Text rendering of the reproduced figures and tables.

The benchmark harness prints, for every paper figure and table, the same
rows/series the paper reports — as plain text suitable for terminals and
log files. Sizes are labeled with their paper-scale equivalents
(e.g. ``2MB`` for a 256-line scaled partition).
"""

from __future__ import annotations

from repro.config import ArchConfig
from repro.errors import ConfigurationError
from repro.harness.exec import EngineTelemetry
from repro.harness.figures import FigureGroup
from repro.harness.sensitivity import SensitivityCurve
from repro.harness.tables import (
    ActiveAttackerSummary,
    CampaignDistributions,
    Table6,
)

_ARCH = ArchConfig.scaled()


def size_label(lines: int) -> str:
    """Paper-scale label for a scaled line count (256 -> ``2MB``)."""
    mb = _ARCH.lines_to_paper_mb(lines)
    if mb >= 1.0:
        if mb == int(mb):
            return f"{int(mb)}MB"
        return f"{mb:.2f}MB"
    return f"{int(round(mb * 1024))}kB"


def render_figure_group(group: FigureGroup) -> str:
    """Render one Figure 10/12-17 group as a text table."""
    lines = [group.title, "=" * len(group.title)]
    schemes = list(group.rows[0].normalized_ipc) if group.rows else []
    header = (
        f"{'workload':28s} "
        + " ".join(f"{s + ' IPC':>13s}" for s in schemes)
        + f" {'Time b/a':>9s} {'Unt b/a':>8s} {'Unt partition (q1/med/q3)':>26s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in group.rows:
        label = ("*" if row.llc_sensitive else " ") + row.label
        quartiles = row.untangle_partition_quartiles
        partition = (
            f"{size_label(quartiles[1])}/{size_label(quartiles[2])}/"
            f"{size_label(quartiles[3])}"
        )
        lines.append(
            f"{label:28s} "
            + " ".join(
                f"{row.normalized_ipc[s]:>13.3f}" for s in schemes
            )
            + f" {row.time_bits_per_assessment:>9.2f}"
            + f" {row.untangle_bits_per_assessment:>8.2f}"
            + f" {partition:>26s}"
        )
    lines.append("-" * len(header))
    geo = " ".join(
        f"{s}={v:.3f}" for s, v in group.geomean_speedups.items()
    )
    lines.append(f"Geo. mean speedup over Static: {geo}")
    lines.append(
        f"Untangle Maintain fraction: {group.maintain_fraction_untangle:.2f}"
        "   (* = LLC-sensitive)"
    )
    return "\n".join(lines)


def render_sensitivity(curves: dict[str, SensitivityCurve]) -> str:
    """Render the Figure 11 study: normalized IPC per size per benchmark."""
    if not curves:
        return "(no curves)"
    any_curve = next(iter(curves.values()))
    sizes = [size_label(s) for s in any_curve.sizes_lines]
    header = f"{'benchmark':14s} " + " ".join(f"{s:>6s}" for s in sizes) + "  adequate"
    lines = ["Figure 11: LLC sensitivity (IPC normalized to 8MB)", header,
             "-" * len(header)]
    for name in sorted(curves):
        curve = curves[name]
        values = " ".join(f"{v:>6.2f}" for v in curve.normalized_ipc)
        adequate = size_label(curve.adequate_size_lines())
        sensitive = "*" if curve.llc_sensitive(_ARCH.default_partition_lines) else " "
        lines.append(f"{sensitive}{name:13s} {values}  {adequate:>8s}")
    lines.append("(* = LLC-sensitive: adequate size > 2MB)")
    return "\n".join(lines)


def render_table6(table: Table6) -> str:
    """Render Table 6: leakage of the mixes under Time and Untangle."""
    lines = [
        "Table 6: Leakage under Time and Untangle",
        f"{'':8s} {'Time b/assess':>14s} {'Time total':>11s} "
        f"{'Unt b/assess':>13s} {'Unt total':>10s} {'reduction':>10s}",
    ]
    for row in table.rows:
        lines.append(
            f"Mix {row.mix_id:<4d} {row.time_bits_per_assessment:>13.1f}b "
            f"{row.time_total_bits:>10.1f}b "
            f"{row.untangle_bits_per_assessment:>12.1f}b "
            f"{row.untangle_total_bits:>9.1f}b "
            f"{row.per_assessment_reduction:>9.0%}"
        )
    lines.append(
        f"Average per-assessment leakage reduction: {table.average_reduction:.0%} "
        "(paper: 78%)"
    )
    return "\n".join(lines)


def render_distributions(dist: CampaignDistributions) -> str:
    """Render campaign-level leakage/IPC distributions per scheme.

    The numbers come from streaming sketches (P² quantiles + Welford),
    so this renders in O(1) memory regardless of campaign size; the
    p10/p50/p90 columns are estimates, exact below five observations.
    """
    if not dist.schemes:
        return "(no distribution data)"
    title = "Campaign distributions (streaming sketches)"
    lines = [title, "=" * len(title)]
    header = (
        f"{'scheme':16s} {'metric':12s} {'n':>6s} {'mean':>9s} "
        f"{'p10':>9s} {'p50':>9s} {'p90':>9s} {'min':>9s} {'max':>9s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    summary = dist.summary()
    for scheme in dist.schemes:
        for metric, key in (("leakage b/a", "leakage_bits"), ("ipc", "ipc")):
            stats = summary[scheme][key]
            lines.append(
                f"{scheme:16s} {metric:12s} {stats['count']:>6d} "
                f"{stats['mean']:>9.3f} {stats['p10']:>9.3f} "
                f"{stats['p50']:>9.3f} {stats['p90']:>9.3f} "
                f"{stats['min']:>9.3f} {stats['max']:>9.3f}"
            )
    lines.append("(percentiles are P² estimates; exact below 5 observations)")
    return "\n".join(lines)


def _human_bytes(count: float) -> str:
    """``1536`` → ``"1.5 KiB"`` (for the store line of the summary)."""
    count = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{int(count)} B"
        count /= 1024
    return f"{count:.1f} GiB"  # pragma: no cover - loop always returns


def render_telemetry(telemetry: EngineTelemetry) -> str:
    """Summarize one execution engine's counters as a text block.

    Renders from :meth:`EngineTelemetry.snapshot` — the same canonical
    counter dict the metrics exporters publish — so the printed summary
    and the exported metrics can never disagree. Shows the cache
    economics (hits vs. simulations), the robustness counters (retries,
    failed cells, quarantined cache entries, worker supervision
    events), and the aggregate work done (simulated cycles, per-cell
    seconds vs. engine wall-clock — their ratio is the achieved
    parallel speedup).

    Accounting invariant (journal replays are neither cache misses nor
    fresh simulations): ``computed + hit + replayed + failed == total``.
    """
    snap = telemetry.snapshot()
    breakdown = (
        f"{snap['hit']} cache hits, "
        f"{snap['computed']} simulated, {snap['failed']} failed"
    )
    if snap["poisoned"]:
        breakdown += f" ({snap['poisoned']} poisoned)"
    if snap["replayed"]:
        breakdown = f"{snap['replayed']} journal replays, " + breakdown
    lines = [
        "Execution telemetry",
        f"  cells:        {snap['total']} ({breakdown})",
        f"  retries:      {snap['retries']}",
        f"  cycles:       {snap['cycles_simulated']:,} simulated",
        f"  cell time:    {snap['cell_seconds']:.2f}s across cells",
        f"  wall clock:   {snap['wall_seconds']:.2f}s",
    ]
    if snap.get("cell_seconds_p50") is not None:
        lines.append(
            "  cell seconds: "
            f"p50={snap['cell_seconds_p50']:.3f}s "
            f"p90={snap['cell_seconds_p90']:.3f}s "
            f"p99={snap['cell_seconds_p99']:.3f}s (streaming sketch)"
        )
    if snap["wall_seconds"] > 0 and snap["cell_seconds"] > 0:
        speedup = snap["cell_seconds"] / snap["wall_seconds"]
        lines.append(f"  speedup:      {speedup:.2f}x (cell time / wall clock)")
    if snap["quarantined"]:
        lines.append(
            f"  quarantined:  {snap['quarantined']} corrupt cache "
            "entries renamed *.corrupt"
        )
    if (
        snap["worker_crashes"]
        or snap["worker_timeouts"]
        or snap["worker_unresponsive"]
    ):
        lines.append(
            f"  supervision:  {snap['worker_crashes']} worker crashes, "
            f"{snap['worker_timeouts']} deadline/stall kills, "
            f"{snap['worker_unresponsive']} unresponsive warnings, "
            f"{snap['workers_respawned']} respawns"
        )
    if snap["backoff_seconds"] > 0:
        lines.append(
            f"  backoff:      {snap['backoff_seconds']:.2f}s of retry delay"
        )
    store_activity = (
        snap["store_trace_hits"]
        + snap["store_trace_misses"]
        + snap["store_rmax_hits"]
        + snap["store_rmax_misses"]
    )
    if store_activity:
        lines.append(
            f"  store:        traces {snap['store_trace_hits']} hits / "
            f"{snap['store_trace_misses']} misses "
            f"({_human_bytes(snap['store_trace_bytes'])} zero-copy), "
            f"rmax {snap['store_rmax_hits']} hits / "
            f"{snap['store_rmax_misses']} misses"
        )
        lines.append(
            f"  rebuilt:      {snap['workload_builds']} workload "
            f"compositions, {snap['rmax_solves']} R_max solves"
        )
    if snap["store_quarantines"]:
        lines.append(
            f"  store quarantined: {snap['store_quarantines']} corrupt "
            "artifacts renamed *.corrupt"
        )
    for subsystem in sorted(snap["degraded"]):
        lines.append(
            f"  degraded:     {subsystem} — {snap['degraded'][subsystem]} "
            "(campaign continued without it)"
        )
    if snap["interrupted"]:
        lines.append(
            "  interrupted:  yes (journaled cells resume with --resume / "
            "REPRO_RESUME=1)"
        )
    for record in telemetry.records:
        if record.status in ("failed", "poisoned"):
            lines.append(
                f"  {record.status.upper()} {record.label}: {record.error}"
            )
    return "\n".join(lines)


def render_active_attacker(summary: ActiveAttackerSummary) -> str:
    """Render the Section 9 active-attacker comparison."""
    return (
        "Active attacker (no Maintain optimization) vs optimized accounting:\n"
        f"  optimized:   {summary.optimized_bits_per_assessment:.2f} bits/assessment "
        "(paper: 0.7)\n"
        f"  unoptimized: {summary.unoptimized_bits_per_assessment:.2f} bits/assessment "
        "(paper: 3.8)\n"
        f"  amplification: {summary.amplification:.1f}x"
    )


def render_conformance(reports) -> str:
    """Render conformance reports (``python -m repro conform``)."""
    lines = []
    failures = 0
    for report in reports:
        title = f"{report.scheme}  (profile: {report.profile_name})"
        lines.append(title)
        lines.append("-" * len(title))
        for check in report.checks:
            mark = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[
                check.status
            ]
            detail = f"  {check.detail}" if check.detail else ""
            lines.append(f"  [{mark}] {check.name}{detail}")
            if check.status == "failed":
                failures += 1
        lines.append("")
    checks = sum(len(r.checks) for r in reports)
    verdict = "OK" if failures == 0 else "FAILED"
    lines.append(
        f"Conformance {verdict}: {len(reports)} report(s), "
        f"{checks} check(s), {failures} failure(s)"
    )
    return "\n".join(lines)


def render_scenario(result) -> str:
    """Render a scenario run: per sweep point, per mix, per scheme.

    Shows the geomean IPC speedup over the ``static`` column when the
    scenario includes one (the paper's headline metric); otherwise falls
    back to the mean raw IPC, since normalization is undefined without a
    baseline.
    """
    spec = result.spec
    keys = [selection.run_key for selection in spec.schemes]
    title = f"Scenario {spec.name!r}"
    lines = [title, "=" * len(title)]
    for point_result in result.points:
        point = point_result.point
        header = f"{point.campaign}  (profile: {point.profile.name})"
        lines.append(header)
        lines.append("-" * len(header))
        col = f"{'mix':12s} " + " ".join(f"{k:>16s}" for k in keys)
        lines.append(col)
        for mix_key, mix in point_result.results.items():
            cells = []
            for key in keys:
                run = mix.runs[key]
                try:
                    cells.append(f"{mix.geomean_speedup(key):>15.3f}x")
                except ConfigurationError:
                    ipcs = [w.ipc for w in run.workloads]
                    mean = sum(ipcs) / len(ipcs) if ipcs else 0.0
                    cells.append(f"{'ipc=' + format(mean, '.3f'):>16s}")
            label = f"mix {mix_key}" if mix_key is not None else "custom"
            lines.append(f"{label:12s} " + " ".join(cells))
        lines.append("")
    lines.append(
        "(columns: geomean IPC speedup over the static column; "
        "ipc=mean raw IPC when the scenario has no static baseline)"
    )
    return "\n".join(lines)


def render_mix_result(result) -> str:
    """Render one mix under an ad-hoc scheme set (``mix --schemes``).

    The figure renderer needs the paper's full static/time/untangle
    column set; a restricted or extended ``--schemes`` run gets this
    plain IPC table instead.
    """
    schemes = list(result.runs)
    title = f"Mix {result.mix_id}: " + ", ".join(schemes)
    lines = [title, "=" * len(title)]
    header = f"{'workload':28s} " + " ".join(
        f"{s + ' IPC':>16s}" for s in schemes
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label in result.labels:
        cells = " ".join(
            f"{result.runs[s].workload(label).ipc:>16.3f}" for s in schemes
        )
        lines.append(f"{label:28s} {cells}")
    if "static" in result.runs:
        try:
            geo = "  ".join(
                f"{s}={result.geomean_speedup(s):.3f}x"
                for s in schemes
                if s != "static"
            )
            lines.append(f"Geomean speedup over static: {geo}")
        except ConfigurationError as exc:
            lines.append(f"(speedups unavailable: {exc})")
    return "\n".join(lines)
