"""Multicore system driver.

Ties together cores, per-domain memory hierarchies, the LLC organization,
the utilization monitors, and a partitioning scheme, and advances them in
fixed cycle quanta:

1. Each core runs until the quantum boundary, stopping early whenever its
   domain's public-progress target is reached — at which point the scheme
   performs a resizing assessment at that exact instruction (Untangle's
   progress-based schedule).
2. At each quantum boundary the scheme gets a time-based hook (used by
   the Time scheme's fixed-interval assessments) and any delayed resizing
   actions whose scheduled application time has passed are applied.
3. Partition sizes are sampled periodically for the distribution charts.

A system of fixed partitions is the exception to all three steps
(:attr:`MultiDomainSystem.quantum_free`): when every core's latencies
are fixed by stream position (Static set partitions over LLC service
traces) and the scheme has no progress targets and no per-quantum work,
interleaving cannot change any result. Each core then runs straight to
the quantum in which its slice finishes, and the loop's quanta,
completion and partition samples are computed instead of iterated.

The scheme object owns all policy (when to assess, what to resize, how to
charge leakage); the system owns all mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Protocol

from repro.config import ArchConfig
from repro.core.actions import ResizingAction
from repro.core.trace import ResizingTrace
from repro.errors import ConfigurationError, SimulationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.liveness import progress_beat
from repro.sim.cpu import Core, CoreConfig, InstructionStream, StopReason
from repro.sim.hierarchy import DomainMemory
from repro.sim.kernelmode import kernel_mode
from repro.sim.stats import DomainStats, KernelPhases, PartitionSample

# Per-run (never per-access) simulator metrics: incremented once when a
# system run finishes, so the recording cost is invisible next to the
# millions of simulated cycles it summarizes.
_REG = obs_metrics.get_registry()
_M_RUNS = _REG.counter("repro_sim_runs_total", "Completed system runs")
_M_QUANTA = _REG.counter("repro_sim_quanta_total", "Interleaving quanta advanced")
_M_CYCLES = _REG.counter("repro_sim_cycles_total", "Cycles simulated")


@dataclass
class DomainSpec:
    """One security domain: a workload stream plus core parameters."""

    name: str
    stream: InstructionStream
    core_config: CoreConfig


class SchemeProtocol(Protocol):
    """What the system requires of a partitioning scheme.

    A scheme may also carry a true ``quantum_free`` attribute: it then
    declares no progress targets, does nothing in :meth:`on_quantum`,
    and keeps every partition size fixed, so a system whose cores all
    read fixed latencies may skip the quantum loop.
    """

    name: str

    def build(self, system: "MultiDomainSystem") -> None:
        """Create the LLC organization, monitors, and accountants."""
        ...

    def progress_target(self, domain: int) -> int | None:
        """Public-progress count of the domain's next assessment, if any."""
        ...

    def on_progress(self, system: "MultiDomainSystem", domain: int, now: int) -> None:
        """A domain reached its progress target: perform an assessment."""
        ...

    def on_quantum(self, system: "MultiDomainSystem", now: int) -> None:
        """Quantum boundary: time-based assessments and delayed actions."""
        ...

    def partition_size(self, domain: int) -> int:
        """The domain's current (nominal) partition size in lines."""
        ...


@dataclass
class SystemResult:
    """Outcome of one system run."""

    stats: list[DomainStats]
    traces: list[ResizingTrace]
    total_cycles: int
    completed: bool
    #: Interleaving quanta advanced (computed, not iterated, for a
    #: :attr:`~MultiDomainSystem.quantum_free` system).
    quanta: int = 0


class MultiDomainSystem:
    """An ``ArchConfig.num_cores``-domain simulated machine.

    Parameters
    ----------
    arch:
        Machine parameters.
    domains:
        One :class:`DomainSpec` per core, in domain order.
    scheme:
        The partitioning scheme (see :mod:`repro.schemes`).
    quantum:
        Cycle quantum for interleaving cores. Smaller quanta tighten the
        interleaving of Shared-LLC accesses and the timing resolution of
        delayed actions.
    sample_interval:
        Cycle period of partition-size distribution samples (the paper
        samples every 100 us).
    """

    def __init__(
        self,
        arch: ArchConfig,
        domains: list[DomainSpec],
        scheme: SchemeProtocol,
        *,
        quantum: int = 500,
        sample_interval: int = 5_000,
    ):
        if len(domains) != arch.num_cores:
            raise ConfigurationError(
                f"{len(domains)} domains for {arch.num_cores} cores"
            )
        if quantum < 1 or sample_interval < 1:
            raise ConfigurationError("quantum and sample interval must be >= 1")
        self.arch = arch
        self.domains = domains
        self.scheme = scheme
        self.quantum = quantum
        self.sample_interval = sample_interval

        self.stats = [DomainStats(domain=i) for i in range(arch.num_cores)]
        #: Per-domain (action, timestamp) logs, appended by the scheme.
        self.trace_logs: list[list[tuple[ResizingAction, int]]] = [
            [] for _ in range(arch.num_cores)
        ]
        #: Populated by ``scheme.build``: per-domain memory hierarchies.
        self.memories: list[DomainMemory] = []
        scheme.build(self)
        if len(self.memories) != arch.num_cores:
            raise SimulationError(
                "scheme.build must populate one DomainMemory per core"
            )
        self.cores = [
            Core(
                domain=i,
                stream=spec.stream,
                memory=self.memories[i],
                arch=arch,
                core_config=spec.core_config,
                stats=self.stats[i],
            )
            for i, spec in enumerate(domains)
        ]

    # ------------------------------------------------------------------
    def record_action(self, domain: int, action: ResizingAction, timestamp: int) -> None:
        """Append an action to the domain's resizing trace log.

        Timestamps are forced strictly increasing (the trace format's
        invariant) by nudging collisions forward one time unit.
        """
        log = self.trace_logs[domain]
        if log and timestamp <= log[-1][1]:
            timestamp = log[-1][1] + 1
        log.append((action, timestamp))

    def sample_partition_sizes(self, now: int) -> None:
        for domain in range(self.arch.num_cores):
            self.stats[domain].record_partition_sample(
                now, self.scheme.partition_size(domain)
            )

    @property
    def all_finished(self) -> bool:
        return all(core.finished for core in self.cores)

    # ------------------------------------------------------------------
    def _observability_attrs(self) -> dict:
        """Per-run counters attached to the ``sim.run`` trace span.

        Resizing-action counts come from the trace logs the scheme
        appends to; monitor observation counters come from whatever
        UMON-style monitors the scheme built (schemes without monitors
        — Static, Shared — report zeros). ``llc_walked`` counts the LLC
        accesses the memories walked, re-walks included, and
        ``llc_settles`` the settles that rolled a walked-ahead tail back
        (:meth:`~repro.sim.hierarchy.DomainMemory.settle`).
        """
        monitors = [
            m for m in getattr(self.scheme, "monitors", []) or [] if m is not None
        ]
        observed = sum(int(getattr(m, "total_observed", 0)) for m in monitors)
        sampled = sum(int(getattr(m, "sampled_observed", 0)) for m in monitors)
        return {
            "resizes": sum(len(log) for log in self.trace_logs),
            "assessments": sum(s.assessments for s in self.stats),
            "monitor_observed": observed,
            "monitor_sampled": sampled,
            "llc_walked": sum(m.llc_walked for m in self.memories),
            "llc_settles": sum(m.llc_settles for m in self.memories),
        }

    def _trace_work(self) -> tuple[int, int, int, int]:
        """Trace work so far: passes walked by the distinct installed
        L1/monitor/LLC traces, and positions the LLC traces walked."""
        l1, monitor, llc = (
            {
                id(trace): trace
                for trace in (getattr(m, kind) for m in self.memories)
                if trace is not None
            }.values()
            for kind in ("l1_trace", "monitor_trace", "llc_trace")
        )
        return (
            *(sum(t.passes_walked for t in traces) for traces in (l1, monitor, llc)),
            sum(t.positions_walked for t in llc),
        )

    def run(self, max_cycles: int = 50_000_000) -> SystemResult:
        """Advance the system until every domain's slice finishes.

        While tracing is on, the ``sim.run`` span also carries where the
        kernel time went (:class:`~repro.sim.stats.KernelPhases`), how
        many stream passes this run's trace reads had to walk, and how
        many LLC service-trace positions they walked.
        """
        phases = KernelPhases() if obs_trace.tracing_enabled() else None
        before = self._trace_work() if phases is not None else None
        with obs_trace.span(
            "sim.run", scheme=self.scheme.name, kernel=kernel_mode()
        ) as span:
            if phases is None:
                now, quanta, completed = self._advance(max_cycles, None)
            else:
                for memory in self.memories:
                    memory.phases = phases
                try:
                    now, quanta, completed = self._advance(max_cycles, phases)
                finally:
                    for memory in self.memories:
                        memory.phases = None
                l1, monitor, llc, llc_walked = (
                    after - start
                    for after, start in zip(self._trace_work(), before)
                )
                span.set(
                    **phases.span_attrs(),
                    l1_trace_passes=l1,
                    monitor_trace_passes=monitor,
                    llc_trace_passes=llc,
                    llc_trace_walked=llc_walked,
                )
            span.set(
                total_cycles=now,
                quanta=quanta,
                completed=completed,
                **self._observability_attrs(),
            )
        _M_RUNS.inc()
        _M_QUANTA.inc(quanta)
        _M_CYCLES.inc(now)
        _REG.counter(
            "repro_sim_resizes_total",
            "Resizing actions recorded, by scheme",
            scheme=self.scheme.name,
        ).inc(sum(len(log) for log in self.trace_logs))
        traces = [
            ResizingTrace.from_pairs(log) for log in self.trace_logs
        ]
        return SystemResult(
            stats=self.stats,
            traces=traces,
            total_cycles=now,
            completed=completed,
            quanta=quanta,
        )

    @property
    def quantum_free(self) -> bool:
        """Whether quantum interleaving cannot change this run's results.

        True when every core's latencies are fixed by stream position
        (:attr:`Core.service_fixed <repro.sim.cpu.Core.service_fixed>`)
        and the scheme declares no progress targets and no work between
        quanta (a true ``quantum_free`` attribute, e.g.
        :attr:`StaticScheme.quantum_free
        <repro.schemes.static.StaticScheme.quantum_free>`).
        """
        return bool(getattr(self.scheme, "quantum_free", False)) and all(
            core.service_fixed for core in self.cores
        )

    def _advance(
        self, max_cycles: int, phases: KernelPhases | None
    ) -> tuple[int, int, bool]:
        """Run every core; returns ``(now, quanta, completed)``.

        With ``phases``, each core run and each scheme hook is timed (a
        quantum-free run times its core loop and its samples as one
        block each).
        """
        if self.quantum_free:
            now, quanta, completed = self._skip_quanta(max_cycles, phases)
        else:
            now, quanta, completed = self._quantum_loop(max_cycles, phases)
        # Close the measurement window of any domain whose slice the
        # max_cycles cap cut short, so partial slices report IPC over
        # the instructions that actually ran instead of a silent 0.
        # ``finished`` stays False: completion checks are unaffected.
        for core in self.cores:
            core.stats.close_measurement_window(core.cycles, core.retired)
        return now, quanta, completed

    def _skip_quanta(
        self, max_cycles: int, phases: KernelPhases | None
    ) -> tuple[int, int, bool]:
        """What :meth:`_quantum_loop` returns and leaves, without its loop.

        Only for a :attr:`quantum_free` system. With no progress targets
        a core's run calls compose (``run(a)`` then ``run(b)`` equals
        ``run(b)``), so after quantum ``q`` the loop leaves each core as
        one ``run(q * quantum)`` would. Each core therefore runs once, up
        to the loop's last possible boundary, stopping after the
        iteration that finishes its slice: the loop sees the slice
        finished from the first quantum ``q`` with ``q * quantum`` above
        that iteration's loop-top cycles. The loop ends at the last
        core's finishing quantum, or at the cap, and every core then
        runs on to that boundary, as the loop keeps finished cores
        running for pressure. Partition samples fall due at quanta
        ``1, 1 + step, ...`` (``step`` the sample interval in quanta,
        rounded up) and count while a domain is still unfinished.
        """
        quantum = self.quantum
        cores = self.cores
        if phases is not None:
            t0 = perf_counter()
        # The loop's last possible quantum: the first boundary at or
        # past max_cycles.
        last = 0 if self.all_finished else max(0, -(-max_cycles // quantum))
        # Each core's finishing quantum; None for a slice the cap cuts.
        finishing: list[int | None] = []
        for core in cores:
            if core.finished:
                finishing.append(0)
                continue
            if not last:
                finishing.append(None)
                continue
            reason = core.run(float(last * quantum), until_finished=True)
            if reason is StopReason.FINISHED:
                # q * quantum > top exactly when it exceeds floor(top).
                finishing.append(int(core.finish_top) // quantum + 1)
            else:
                finishing.append(None)
            # Liveness evidence, one unit per quantum the call spans.
            progress_beat(finishing[-1] or last)
        completed = None not in finishing
        quanta = max(finishing, default=0) if completed else last
        now = quanta * quantum
        for core in cores:
            if core.cycles < now:
                core.run(float(now))
                progress_beat(1)
        if phases is not None:
            t1 = perf_counter()
            phases.core_s += t1 - t0
        step = -(-self.sample_interval // quantum)
        for domain, (stats, done) in enumerate(zip(self.stats, finishing)):
            recorded = quanta + 1 if done is None else done
            lines = self.scheme.partition_size(domain)
            stats.partition_samples.extend(
                PartitionSample(q * quantum, lines)
                for q in range(1, recorded, step)
            )
        if phases is not None:
            phases.scheme_s += perf_counter() - t1
        return now, quanta, completed

    def _quantum_loop(
        self, max_cycles: int, phases: KernelPhases | None
    ) -> tuple[int, int, bool]:
        """The quantum loop; returns ``(now, quanta, completed)``."""
        now = 0
        next_sample = 0
        quanta = 0
        scheme = self.scheme
        cores = self.cores
        quantum = self.quantum
        progress = StopReason.PROGRESS
        # A core's slice finishes only inside ``Core.run``, so whether
        # every slice has finished is re-read as each core stops.
        finished = self.all_finished
        # Phase sums stay in locals until the loop ends: updating an
        # attribute after each timed block would add untimed work.
        core_s = scheme_s = t0 = 0.0
        while now < max_cycles and not finished:
            now += quantum
            until = float(now)
            finished = True
            for core in cores:
                while core.cycles < until:
                    if phases is None:
                        target = scheme.progress_target(core.domain)
                        reason = core.run(until, target)
                    else:
                        t0 = perf_counter()
                        target = scheme.progress_target(core.domain)
                        t1 = perf_counter()
                        reason = core.run(until, target)
                        t2 = perf_counter()
                        scheme_s += t1 - t0
                        core_s += t2 - t1
                    if reason is not progress:
                        break
                    if phases is not None:
                        t0 = t2
                    scheme.on_progress(self, core.domain, core.now)
                    if scheme.progress_target(core.domain) == target:
                        raise SimulationError(
                            "scheme did not advance the progress target "
                            f"of domain {core.domain}"
                        )
                    if phases is not None:
                        scheme_s += perf_counter() - t0
                finished = finished and core.stats.finished
            quanta += 1
            # Liveness evidence for the engine's worker heartbeats: a
            # quantum is thousands of simulated accesses, so this is
            # far off the hot path.
            progress_beat()
            if phases is not None:
                t0 = perf_counter()
            scheme.on_quantum(self, now)
            if now >= next_sample:
                self.sample_partition_sizes(now)
                next_sample = now + self.sample_interval
            if phases is not None:
                scheme_s += perf_counter() - t0
        # Leave every LLC exactly as the committed accesses left it.
        if phases is not None:
            t0 = perf_counter()
        for memory in self.memories:
            memory.settle(timed=False)
        if phases is not None:
            settle_s = perf_counter() - t0
            phases.llc_walk_s += settle_s
            phases.core_s += core_s + settle_s
            phases.scheme_s += scheme_s
        # ``finished`` is as of the last quantum's stops, so a run whose
        # last core retires during the final quantum at exactly
        # max_cycles still counts as completed.
        return now, quanta, finished
