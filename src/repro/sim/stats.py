"""Per-domain runtime statistics.

Collects what the paper's evaluation reports per workload: IPC over the
measured slice, partition-size samples (for the distribution charts in
Figure 10's top row), assessment/action counts, and leakage bits.

Measurement honors the paper's protocol (Section 8): a warmup period is
excluded, and once a workload finishes its slice it keeps running (to
maintain LLC pressure) but stops updating statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class KernelPhases:
    """Where one system run's kernel time went, summed per phase (seconds).

    Filled only while tracing is on — every timed block then pays one
    ``perf_counter`` pair, and nothing at all otherwise — and reported as
    ``sim.run`` span attributes (:meth:`span_attrs`). ``core_s`` is all
    of ``Core.run``; the memory phases nested inside it are split out,
    and the rest is the core's own timing model.
    """

    #: L1 service-trace reads (trace walks they trigger included).
    l1_read_s: float = 0.0
    #: LLC walks: walks ahead, settles (rollback and re-walk) outside
    #: scheme hooks, scalar accesses; for a fixed partition, LLC
    #: service-trace reads and the trace walks (L1 trace walks included)
    #: they trigger.
    llc_walk_s: float = 0.0
    #: Monitor-trace reads and monitor bin accumulation.
    monitor_feed_s: float = 0.0
    #: Everything inside ``Core.run``.
    core_s: float = 0.0
    #: Scheme hooks: progress targets, assessments, allocation, delayed
    #: resizes, sampling.
    scheme_s: float = 0.0

    def span_attrs(self) -> dict[str, float]:
        """The ``phase_*`` attributes of the ``sim.run`` span."""
        memory = self.l1_read_s + self.llc_walk_s + self.monitor_feed_s
        return {
            "phase_l1_read_s": round(self.l1_read_s, 6),
            "phase_llc_walk_s": round(self.llc_walk_s, 6),
            "phase_monitor_feed_s": round(self.monitor_feed_s, 6),
            # Batch planning, the interleaved stall cumsum and stop
            # search, boundary bookkeeping: Core.run minus its memory.
            "phase_stall_s": round(self.core_s - memory, 6),
            "phase_scheme_s": round(self.scheme_s, 6),
        }


@dataclass
class PartitionSample:
    """One sample of a domain's partition size at a point in time."""

    cycle: int
    lines: int


@dataclass
class DomainStats:
    """Statistics for one domain (one core + workload)."""

    domain: int
    #: Cycle at which measurement started (end of warmup).
    measure_start_cycle: float | None = None
    measure_start_instructions: int = 0
    #: Cycle at which the slice finished (stats frozen).
    measure_end_cycle: float | None = None
    measure_end_instructions: int = 0
    finished: bool = False
    partition_samples: list[PartitionSample] = field(default_factory=list)
    assessments: int = 0
    visible_actions: int = 0
    leakage_bits: float = 0.0

    # ------------------------------------------------------------------
    def begin_measurement(self, cycle: float, instructions: int) -> None:
        self.measure_start_cycle = cycle
        self.measure_start_instructions = instructions

    def end_measurement(self, cycle: float, instructions: int) -> None:
        if self.finished:
            return
        self.measure_end_cycle = cycle
        self.measure_end_instructions = instructions
        self.finished = True

    def close_measurement_window(self, cycle: float, instructions: int) -> None:
        """Close an unfinished measurement window at simulation end.

        A domain whose slice never completes before ``max_cycles`` used
        to report IPC of 0 (no ``end_measurement`` call ever set the
        window's end), silently under-reporting partial slices. Closing
        the window records the work that actually ran while keeping
        ``finished=False``, so completion checks still see the truth.
        No-op for finished domains and for domains still in warmup.
        """
        if self.finished or self.measure_start_cycle is None:
            return
        self.measure_end_cycle = cycle
        self.measure_end_instructions = instructions

    # ------------------------------------------------------------------
    @property
    def measured_instructions(self) -> int:
        if self.measure_start_cycle is None or self.measure_end_cycle is None:
            return 0
        return self.measure_end_instructions - self.measure_start_instructions

    @property
    def measured_cycles(self) -> float:
        if self.measure_start_cycle is None or self.measure_end_cycle is None:
            return 0.0
        return self.measure_end_cycle - self.measure_start_cycle

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the measured slice."""
        cycles = self.measured_cycles
        return self.measured_instructions / cycles if cycles > 0 else 0.0

    @property
    def bits_per_assessment(self) -> float:
        return self.leakage_bits / self.assessments if self.assessments else 0.0

    @property
    def maintain_fraction(self) -> float:
        if not self.assessments:
            return 0.0
        return (self.assessments - self.visible_actions) / self.assessments

    # ------------------------------------------------------------------
    def record_partition_sample(self, cycle: int, lines: int) -> None:
        if not self.finished:
            self.partition_samples.append(PartitionSample(cycle, lines))

    def partition_size_quartiles(self) -> tuple[float, float, float, float, float]:
        """(min, q1, median, q3, max) of sampled partition sizes.

        These are the five numbers behind each bar of the paper's
        partition-size distribution charts. Quartiles interpolate
        linearly between order statistics (numpy's default percentile
        method), which is symmetric by construction: the old
        ``round(fraction * (n - 1))`` index rounded half-to-even
        (banker's rounding), so for small sample counts q1 and q3 (and
        the even-``n`` median) could land asymmetric distances from the
        extremes. Interpolated values may fall between two sampled
        (supported) sizes; min and max are always exact samples.
        """
        if not self.partition_samples:
            return (0, 0, 0, 0, 0)
        values = sorted(s.lines for s in self.partition_samples)
        n = len(values)

        def percentile(fraction: float) -> float:
            rank = fraction * (n - 1)
            low = int(rank)
            high = min(n - 1, low + 1)
            weight = rank - low
            return values[low] * (1.0 - weight) + values[high] * weight

        return (
            float(values[0]),
            percentile(0.25),
            percentile(0.5),
            percentile(0.75),
            float(values[-1]),
        )
