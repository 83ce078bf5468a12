"""Instruction-count and capacity scale of a workload (Section 8).

Kept free of NumPy and the simulator: a :class:`~repro.harness.runconfig.RunProfile`
embeds a :class:`WorkloadScale`, and a command that only replays cached
results must be able to build its profiles without importing what
composes workloads (:mod:`repro.workloads.workload`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Scaled lines per paper-scale MB (16 MB LLC -> 2048 lines).
DEFAULT_LINES_PER_MB = 128


@dataclass(frozen=True)
class WorkloadScale:
    """Instruction-count parameters of one evaluation profile.

    The paper's values are ``spec_instructions=500M``,
    ``crypto_instructions=50M``, ``spec_chunk=10M``, ``crypto_chunk=1M``
    (Section 8); the scaled defaults divide all four by ~8000 while
    keeping the 10:1 ratios.
    """

    spec_instructions: int = 60_000
    crypto_instructions: int = 6_000
    spec_chunk: int = 10_000
    crypto_chunk: int = 1_000
    lines_per_mb: int = DEFAULT_LINES_PER_MB
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        if min(
            self.spec_instructions,
            self.crypto_instructions,
            self.spec_chunk,
            self.crypto_chunk,
        ) < 1:
            raise ConfigurationError("all instruction counts must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup fraction must be in [0, 1)")

    @classmethod
    def paper(cls) -> "WorkloadScale":
        """The paper's instruction counts (documentation only — enormous)."""
        return cls(
            spec_instructions=500_000_000,
            crypto_instructions=50_000_000,
            spec_chunk=10_000_000,
            crypto_chunk=1_000_000,
            warmup_fraction=0.02,
        )

    @classmethod
    def test(cls) -> "WorkloadScale":
        """A very small profile for fast unit tests."""
        return cls(
            spec_instructions=8_000,
            crypto_instructions=800,
            spec_chunk=2_000,
            crypto_chunk=200,
        )
