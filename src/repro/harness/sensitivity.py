"""LLC sensitivity study (Figure 11 and Appendix B of the paper).

Each SPEC benchmark runs alone on a one-core machine at every supported
partition size; its IPC is normalized to the largest (8 MB-equivalent)
partition. The benchmark's *adequate LLC size* is the smallest size
reaching normalized IPC >= 0.9; sizes above 2 MB-equivalent classify the
benchmark as LLC-sensitive (Section 8). The paper finds 8 sensitive
benchmarks out of 36 — the reproduction must recover the same set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import ArchConfig
from repro.harness.exec import ExecutionEngine, SensitivityCell
from repro.harness.experiment import share_l1_traces
from repro.harness.runconfig import RunProfile, SCALED
from repro.harness.store import cached_spec_stream
from repro.obs import metrics as obs_metrics
from repro.workloads.spec import SPEC_BENCHMARKS, SpecBenchmark

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.sim.cpu import InstructionStream

#: Same series the mix-workload composer books: a sensitivity stream is
#: one (SPEC-only) trace composition.
_M_BUILDS = obs_metrics.get_registry().counter(
    "repro_workload_builds_total",
    "Full workload-trace compositions performed in this process",
)

#: Normalized-IPC threshold defining the adequate LLC size (Section 8).
ADEQUATE_IPC_THRESHOLD = 0.9


@dataclass(frozen=True)
class SensitivityCurve:
    """One benchmark's IPC across the supported partition sizes."""

    name: str
    sizes_lines: tuple[int, ...]
    ipc: tuple[float, ...]

    @property
    def normalized_ipc(self) -> tuple[float, ...]:
        """IPC normalized to the largest partition (Figure 11's y-axis)."""
        reference = self.ipc[-1]
        if reference <= 0:
            return tuple(0.0 for _ in self.ipc)
        return tuple(v / reference for v in self.ipc)

    def adequate_size_lines(self) -> int:
        """Smallest size with normalized IPC >= 0.9."""
        for size, value in zip(self.sizes_lines, self.normalized_ipc):
            if value >= ADEQUATE_IPC_THRESHOLD:
                return size
        return self.sizes_lines[-1]

    def llc_sensitive(self, static_partition_lines: int) -> bool:
        """Adequate size above the Static partition -> sensitive."""
        return self.adequate_size_lines() > static_partition_lines


def compose_spec_stream_arrays(
    benchmark: SpecBenchmark,
    instructions: int,
    lines_per_mb: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """The expensive half of :func:`build_spec_only_stream`: raw arrays.

    This is the composition the precompute store persists; a sensitivity
    study runs the same benchmark at 9 partition sizes, and every size
    shares this one trace.
    """
    import numpy as np

    from repro.workloads.patterns import place_memory_instructions

    _M_BUILDS.inc()
    rng = np.random.default_rng(seed)
    period = max(1, round(1.0 / benchmark.mem_fraction))
    mem_count = max(1, instructions // period)
    accesses = benchmark.generate_accesses(mem_count, rng, lines_per_mb)
    addresses = place_memory_instructions(accesses, benchmark.mem_fraction)
    return {"addresses": addresses}


def build_spec_only_stream_direct(
    benchmark: SpecBenchmark,
    instructions: int,
    lines_per_mb: int,
    seed: int,
) -> InstructionStream:
    """The store-less build path (composition + assembly in one call)."""
    from repro.core.annotations import AnnotationVector
    from repro.sim.cpu import InstructionStream

    arrays = compose_spec_stream_arrays(
        benchmark, instructions, lines_per_mb, seed
    )
    addresses = arrays["addresses"]
    return InstructionStream(addresses, AnnotationVector.public(len(addresses)))


def build_spec_only_stream(
    benchmark: SpecBenchmark,
    instructions: int,
    lines_per_mb: int,
    seed: int,
) -> InstructionStream:
    """A standalone (no crypto) stream for one SPEC benchmark.

    Served from the precompute store when one is active (bit-identical,
    shared across all partition sizes and worker processes); otherwise
    built directly.
    """
    return cached_spec_stream(benchmark, instructions, lines_per_mb, seed)


def run_benchmark_at_size(
    benchmark: SpecBenchmark,
    partition_lines: int,
    profile: RunProfile = SCALED,
) -> float:
    """IPC of one benchmark alone at one fixed partition size.

    All sizes of one benchmark run the same stream, so they share one
    L1 service trace from the process memo (:func:`share_l1_traces`).
    The Static partition is fixed, so the cell also walks one LLC
    service trace of its own over that L1 trace and then reads every
    access's latency off it; the quantum changes nothing but how often
    the core stops.
    """
    from repro.schemes.static import StaticScheme
    from repro.sim.cpu import CoreConfig
    from repro.sim.system import DomainSpec, MultiDomainSystem

    arch = ArchConfig.scaled(num_cores=1)
    scale = profile.workload_scale
    stream = build_spec_only_stream(
        benchmark, scale.spec_instructions, scale.lines_per_mb, profile.seed
    )
    stream_key = (
        "spec-only",
        benchmark,
        scale.spec_instructions,
        scale.lines_per_mb,
        profile.seed,
    )
    core_config = CoreConfig(
        mlp=benchmark.mlp,
        slice_instructions=stream.length,
        warmup_instructions=int(scale.warmup_fraction * stream.length),
    )
    scheme = StaticScheme(arch, partition_lines=partition_lines)
    system = MultiDomainSystem(
        arch,
        [DomainSpec(benchmark.name, stream, core_config)],
        scheme,
        quantum=profile.quantum,
        # Only the IPC is read, and a fixed partition's size never
        # changes: one sample (at the first quantum) instead of one per
        # sample interval of the run.
        sample_interval=profile.max_cycles,
    )
    share_l1_traces(system, [stream_key])
    outcome = system.run(max_cycles=profile.max_cycles)
    return outcome.stats[0].ipc


def run_sensitivity_curve(
    benchmark: SpecBenchmark, profile: RunProfile = SCALED
) -> SensitivityCurve:
    """IPC across all supported sizes for one benchmark (one Fig. 11 bar group)."""
    arch = ArchConfig.scaled(num_cores=1)
    sizes = arch.supported_partition_lines
    ipcs = tuple(
        run_benchmark_at_size(benchmark, size, profile) for size in sizes
    )
    return SensitivityCurve(name=benchmark.name, sizes_lines=sizes, ipc=ipcs)


def run_sensitivity_study(
    names: list[str] | None = None,
    profile: RunProfile = SCALED,
    *,
    engine: ExecutionEngine | None = None,
) -> dict[str, SensitivityCurve]:
    """The full Figure 11 study (all 36 benchmarks by default).

    Every ``(benchmark, size)`` point is one independent engine cell —
    36 benchmarks x 9 sizes fan out over the engine's worker pool and
    result cache. A benchmark whose cells failed (after retries) is left
    out of the returned dict rather than aborting the study.
    """
    if names is None:
        names = sorted(SPEC_BENCHMARKS)
    engine = engine if engine is not None else ExecutionEngine()
    sizes = ArchConfig.scaled(num_cores=1).supported_partition_lines
    cells = [
        SensitivityCell(benchmark=name, partition_lines=size, profile=profile)
        for name in names
        for size in sizes
    ]
    outcomes = engine.run(cells, campaign="sensitivity")
    curves: dict[str, SensitivityCurve] = {}
    for index, name in enumerate(names):
        per_size = outcomes[index * len(sizes) : (index + 1) * len(sizes)]
        if all(outcome.ok for outcome in per_size):
            curves[name] = SensitivityCurve(
                name=name,
                sizes_lines=sizes,
                ipc=tuple(outcome.value for outcome in per_size),
            )
    return curves


def classify_benchmarks(
    curves: dict[str, SensitivityCurve],
    static_partition_lines: int = 256,
) -> tuple[list[str], list[str]]:
    """(sensitive, insensitive) names from measured curves."""
    sensitive = sorted(
        name for name, c in curves.items() if c.llc_sensitive(static_partition_lines)
    )
    insensitive = sorted(set(curves) - set(sensitive))
    return sensitive, insensitive
