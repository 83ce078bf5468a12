"""Architecture configuration (Table 3 of the paper).

:class:`ArchConfig` captures the simulated machine: core count and issue
width, cache geometry and latencies, and the list of supported partition
sizes. Two constructors are provided:

* :meth:`ArchConfig.paper` — the paper's parameters (8 OoO cores at 2 GHz,
  32 kB L1s, 16 MB 16-way LLC, 50 ns DRAM, nine partition sizes from
  128 kB to 8 MB). Useful for documentation and unit conversions; far too
  large to simulate wholesale in Python.
* :meth:`ArchConfig.scaled` — the default evaluation configuration: every
  capacity divided by :data:`CAPACITY_SCALE` so that the LLC is 2048 lines
  instead of 262144, with all *ratios* between partition sizes, LLC total,
  and (in :mod:`repro.workloads`) working sets preserved. Those ratios are
  what determine the shapes of the paper's figures.

All capacities are expressed in cache lines, all times in core cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

#: Factor by which the scaled configuration shrinks every capacity
#: relative to the paper's machine (16 MB -> 128 kB worth of lines).
CAPACITY_SCALE = 128

#: Bytes per cache line (Table 3), shared by both configurations.
LINE_BYTES = 64

#: Capacity (Maintain levels) of Untangle's default optimized accounting
#: table (Section 7) — also the value cells advertise in their
#: ``store_needs`` so populate solves exactly the table the scheme will
#: request. Defined here, with no solver import, so scheme registration
#: can declare it as a parameter default.
DEFAULT_TABLE_CAPACITY = 48


@dataclass(frozen=True)
class ArchConfig:
    """Simulated machine parameters.

    Attributes
    ----------
    num_cores:
        Number of cores; each runs one security domain's workload.
    issue_width:
        Max instructions retired per cycle; non-memory instructions cost
        ``1 / issue_width`` cycles each.
    l1_lines / l1_associativity:
        Private L1 data cache geometry (lines, ways).
    llc_lines / llc_associativity:
        Shared LLC geometry (total lines, ways).
    l1_latency / llc_latency / dram_latency:
        Round-trip latencies in cycles for a hit at each level.
    supported_partition_lines:
        The pre-defined list of partition sizes a domain may use, in
        lines, ascending (Table 3 lists nine sizes).
    default_partition_lines:
        Initial/static partition size (the paper's 2 MB equivalent).
    """

    num_cores: int = 8
    issue_width: int = 8
    l1_lines: int = 64
    l1_associativity: int = 8
    llc_lines: int = 2048
    llc_associativity: int = 16
    l1_latency: int = 2
    llc_latency: int = 10
    dram_latency: int = 110
    supported_partition_lines: tuple[int, ...] = (
        16, 32, 64, 128, 256, 384, 512, 768, 1024
    )
    default_partition_lines: int = 256

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("need at least one core")
        if self.issue_width < 1:
            raise ConfigurationError("issue width must be >= 1")
        if self.l1_lines < self.l1_associativity or self.l1_associativity < 1:
            raise ConfigurationError("invalid L1 geometry")
        if self.llc_lines < self.llc_associativity or self.llc_associativity < 1:
            raise ConfigurationError("invalid LLC geometry")
        sizes = self.supported_partition_lines
        if not sizes or list(sizes) != sorted(set(sizes)):
            raise ConfigurationError(
                "supported partition sizes must be unique and ascending"
            )
        if sizes[0] < self.llc_associativity:
            raise ConfigurationError(
                "smallest partition must hold at least one full set "
                f"({self.llc_associativity} lines)"
            )
        if sizes[-1] > self.llc_lines:
            raise ConfigurationError("largest partition exceeds the LLC")
        if self.default_partition_lines not in sizes:
            raise ConfigurationError(
                f"default partition {self.default_partition_lines} not in the "
                f"supported list {sizes}"
            )
        for latency in (self.l1_latency, self.llc_latency, self.dram_latency):
            if latency < 1:
                raise ConfigurationError("latencies must be >= 1 cycle")

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "ArchConfig":
        """The paper's Table 3 machine, in lines (64 B each)."""
        kib_lines = 1024 // LINE_BYTES
        mib_lines = 1024 * kib_lines
        return cls(
            num_cores=8,
            issue_width=8,
            l1_lines=32 * kib_lines,
            l1_associativity=8,
            llc_lines=16 * mib_lines,
            llc_associativity=16,
            l1_latency=2,
            llc_latency=10,
            dram_latency=100,
            supported_partition_lines=(
                128 * kib_lines, 256 * kib_lines, 512 * kib_lines,
                1 * mib_lines, 2 * mib_lines, 3 * mib_lines,
                4 * mib_lines, 6 * mib_lines, 8 * mib_lines,
            ),
            default_partition_lines=2 * mib_lines,
        )

    @classmethod
    def scaled(cls, num_cores: int = 8) -> "ArchConfig":
        """The default evaluation machine: paper capacities / 128."""
        return cls(num_cores=num_cores)

    @classmethod
    def tiny(cls, num_cores: int = 2) -> "ArchConfig":
        """A very small machine for fast unit tests."""
        return cls(
            num_cores=num_cores,
            issue_width=4,
            l1_lines=16,
            l1_associativity=4,
            llc_lines=256,
            llc_associativity=8,
            supported_partition_lines=(8, 16, 32, 64, 128),
            default_partition_lines=32,
        )

    # ------------------------------------------------------------------
    def with_cores(self, num_cores: int) -> "ArchConfig":
        """This configuration with a different core count."""
        return replace(self, num_cores=num_cores)

    @property
    def partition_size_labels(self) -> list[str]:
        """Human-readable labels for the supported sizes.

        In the scaled configuration, each line count maps back to the
        paper-scale size it represents (e.g. 256 lines -> "2MB").
        """
        labels = []
        for lines in self.supported_partition_lines:
            paper_bytes = lines * LINE_BYTES * CAPACITY_SCALE
            if paper_bytes >= 1024 * 1024:
                labels.append(f"{paper_bytes // (1024 * 1024)}MB")
            else:
                labels.append(f"{paper_bytes // 1024}kB")
        return labels

    def lines_to_paper_mb(self, lines: int) -> float:
        """Convert a scaled line count to the paper-scale size in MB."""
        return lines * LINE_BYTES * CAPACITY_SCALE / (1024 * 1024)

    def paper_mb_to_lines(self, mb: float) -> int:
        """Convert a paper-scale size in MB to scaled lines."""
        return int(round(mb * 1024 * 1024 / (LINE_BYTES * CAPACITY_SCALE)))
