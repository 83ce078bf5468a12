"""Run profiles: scaled-down counterparts of the paper's parameters.

The paper's machine runs 500M-instruction slices on a 16 MB LLC with
assessments every 1 ms (Time) or every 8M retired instructions with a
1 ms cooldown (Untangle). Pure-Python simulation requires scaling; a
:class:`RunProfile` groups the scaled parameters and documents the unit
mapping:

* capacity: 128 paper-bytes per simulated byte (LLC 16 MB -> 2048 lines);
* time: one scaled "millisecond" is :attr:`RunProfile.cycles_per_ms`
  cycles (1000 by default), so the Time interval, the Untangle cooldown,
  and the random-delay width are all one scaled ms, like the paper;
* instructions: the Untangle assessment stride ``N`` is chosen, like the
  paper's 8M, so that retiring ``N`` instructions takes roughly one
  scaled ms at typical IPC — keeping Time and Untangle assessment
  frequencies comparable (Section 8).

All ratios that shape the figures (partition sizes : LLC : working sets;
assessment interval : slice length) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import ArchConfig
from repro.errors import ConfigurationError
from repro.workloads.scale import WorkloadScale


@dataclass(frozen=True)
class RunProfile:
    """One self-consistent set of scaled experiment parameters."""

    name: str
    workload_scale: WorkloadScale
    #: Cycles per scaled millisecond (the paper's 1 ms = 2M cycles).
    cycles_per_ms: int = 4_000
    #: Time scheme: assessment interval in cycles ("every 1 ms").
    time_interval: int = 4_000
    #: Untangle: retired public instructions per assessment (the 8M analog).
    untangle_instructions: int = 4_000
    #: Untangle: cooldown T_c in cycles ("1 ms").
    cooldown: int = 4_000
    #: UMON monitor window M_w, in monitored accesses (the 1M analog).
    monitor_window: int = 4_000
    #: Monitor set-sampling shift (1 -> monitor half the lines).
    monitor_sampling_shift: int = 0
    #: Allocator hysteresis (hits/line); damps noise-induced resizes.
    hysteresis: float = 0.02
    #: System interleaving quantum, cycles.
    quantum: int = 250
    #: Partition-size sampling period, cycles (the paper's 100 us).
    sample_interval: int = 100
    #: Hard cycle cap per run.
    max_cycles: int = 20_000_000
    #: Base seed for workload generation and scheme randomness.
    seed: int = 2023

    def __post_init__(self) -> None:
        if min(
            self.cycles_per_ms,
            self.time_interval,
            self.untangle_instructions,
            self.cooldown,
            self.quantum,
            self.sample_interval,
        ) < 1:
            raise ConfigurationError("profile parameters must be positive")

    def arch(self, num_cores: int = 8) -> ArchConfig:
        """The machine for this profile."""
        return ArchConfig.scaled(num_cores=num_cores)

    def with_seed(self, seed: int) -> "RunProfile":
        return replace(self, seed=seed)


#: Default evaluation profile (used by the benchmark harness).
SCALED = RunProfile(name="scaled", workload_scale=WorkloadScale())

#: Smaller/faster profile for integration tests.
TEST = RunProfile(
    name="test",
    workload_scale=WorkloadScale.test(),
    time_interval=500,
    untangle_instructions=600,
    cooldown=500,
    monitor_window=2_000,
    quantum=125,
    sample_interval=250,
    max_cycles=5_000_000,
)

#: Profile for the kernel microbenchmarks (``benchmarks/bench_kernel.py``).
#: SCALED workloads with two knobs moved toward the paper's regime, where
#: batching legitimately amortizes: a longer interleaving quantum (real
#: quanta span millions of cycles; the tiny test quantum exists only to
#: exercise interleavings densely) and a sampled UMON (Section 7's
#: monitor samples sets rather than observing every access).
BENCH = RunProfile(
    name="bench",
    workload_scale=WorkloadScale(),
    quantum=4_000,
    monitor_sampling_shift=3,
)

#: Heavier profile for closer-to-paper statistics (slower).
LARGE = RunProfile(
    name="large",
    workload_scale=WorkloadScale(
        spec_instructions=150_000,
        crypto_instructions=15_000,
        spec_chunk=10_000,
        crypto_chunk=1_000,
    ),
    untangle_instructions=4_000,
    monitor_window=8_000,
)

PROFILES: dict[str, RunProfile] = {p.name: p for p in (SCALED, TEST, BENCH, LARGE)}
