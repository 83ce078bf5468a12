"""Table generators (Table 6 and the Section 9 active-attacker study)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.exec import ExecutionEngine
from repro.harness.experiment import MixResult, run_mix_grid
from repro.harness.runconfig import RunProfile, SCALED


@dataclass(frozen=True)
class Table6Row:
    """One mix's leakage summary (Table 6 of the paper)."""

    mix_id: int
    time_bits_per_assessment: float
    time_total_bits: float
    untangle_bits_per_assessment: float
    untangle_total_bits: float

    @property
    def per_assessment_reduction(self) -> float:
        """Fractional reduction of leakage per assessment vs Time."""
        if self.time_bits_per_assessment <= 0:
            return 0.0
        return 1.0 - self.untangle_bits_per_assessment / self.time_bits_per_assessment


@dataclass(frozen=True)
class Table6:
    """The full Table 6 plus the paper's headline average."""

    rows: list[Table6Row]

    @property
    def average_reduction(self) -> float:
        """Mean per-assessment leakage reduction across mixes.

        The paper reports 78% across its mixes ("workloads leak 78% less
        under Untangle than under Time").
        """
        if not self.rows:
            return 0.0
        return sum(r.per_assessment_reduction for r in self.rows) / len(self.rows)


def table6_row(mix_id: int, result: MixResult) -> Table6Row:
    """Extract one Table 6 row from a finished mix result."""
    time_run = result.runs["time"]
    untangle_run = result.runs["untangle"]
    return Table6Row(
        mix_id=mix_id,
        time_bits_per_assessment=time_run.mean_bits_per_assessment,
        time_total_bits=time_run.mean_total_leakage,
        untangle_bits_per_assessment=untangle_run.mean_bits_per_assessment,
        untangle_total_bits=untangle_run.mean_total_leakage,
    )


def table6(
    profile: RunProfile = SCALED,
    mix_ids: tuple[int, ...] = (1, 2, 3, 4),
    results: dict[int, MixResult] | None = None,
    *,
    engine: ExecutionEngine | None = None,
) -> Table6:
    """Compute Table 6 (runs the mixes unless given results).

    Mixes not supplied via ``results`` are simulated in one engine pass
    so their (mix, scheme) cells can run in parallel and hit the cache.
    """
    missing = tuple(
        mix_id
        for mix_id in mix_ids
        if results is None or mix_id not in results
    )
    computed = (
        run_mix_grid(
            missing,
            profile,
            schemes=("static", "time", "untangle"),
            engine=engine,
            campaign="table6",
        )
        if missing
        else {}
    )
    rows = []
    for mix_id in mix_ids:
        result = (
            results[mix_id]
            if results is not None and mix_id in results
            else computed[mix_id]
        )
        rows.append(table6_row(mix_id, result))
    return Table6(rows=rows)


@dataclass(frozen=True)
class ActiveAttackerSummary:
    """Section 9's unoptimized-vs-optimized leakage comparison."""

    optimized_bits_per_assessment: float
    unoptimized_bits_per_assessment: float

    @property
    def amplification(self) -> float:
        if self.optimized_bits_per_assessment <= 0:
            return 0.0
        return (
            self.unoptimized_bits_per_assessment
            / self.optimized_bits_per_assessment
        )


def active_attacker_summary(
    profile: RunProfile = SCALED,
    mix_ids: tuple[int, ...] = (1, 4),
    *,
    engine: ExecutionEngine | None = None,
) -> ActiveAttackerSummary:
    """Average leakage with and without the Maintain optimization.

    Runs each mix twice under Untangle — once with the optimized rate
    table and once with the worst-case (capacity-1) table that models an
    attacker forcing a visible action at every assessment — and averages
    bits per assessment across all workloads (Section 9: 3.8 bits vs
    0.7 bits in the paper).
    """
    grid = run_mix_grid(
        mix_ids,
        profile,
        schemes=("untangle", "untangle-unopt"),
        engine=engine,
        campaign="active-attacker",
    )
    optimized = []
    unoptimized = []
    for mix_id in mix_ids:
        result = grid[mix_id]
        optimized.extend(
            w.bits_per_assessment
            for w in result.runs["untangle"].workloads
            if w.assessments
        )
        unoptimized.extend(
            w.bits_per_assessment
            for w in result.runs["untangle-unopt"].workloads
            if w.assessments
        )
    return ActiveAttackerSummary(
        optimized_bits_per_assessment=sum(optimized) / max(len(optimized), 1),
        unoptimized_bits_per_assessment=sum(unoptimized) / max(len(unoptimized), 1),
    )
