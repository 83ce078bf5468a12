"""Static partitioning (the Static baseline of Table 4).

Every domain keeps a fixed partition (the paper's 2 MB equivalent) for
the whole execution. Static partitioning is the fully secure baseline:
no resizing actions exist, so nothing is observable and the leakage is
exactly zero — but performance suffers whenever demand differs from the
fixed allocation (Section 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ArchConfig
from repro.errors import ConfigurationError
from repro.schemes.base import BaseScheme
from repro.sim.hierarchy import DomainMemory
from repro.sim.partition import PartitionedLLC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import MultiDomainSystem


class StaticScheme(BaseScheme):
    """Fixed equal partitions; zero assessments, zero leakage."""

    name = "static"

    def __init__(
        self,
        arch: ArchConfig,
        partition_lines: int | None = None,
        organization: str = "set",
    ):
        super().__init__(arch)
        self._partition_lines = (
            partition_lines
            if partition_lines is not None
            else arch.default_partition_lines
        )
        if self._partition_lines * arch.num_cores > arch.llc_lines:
            raise ConfigurationError("static partitions exceed the LLC")
        self._organization = organization

    @property
    def partition_lines(self) -> int:
        return self._partition_lines

    def build(self, system: "MultiDomainSystem") -> None:
        arch = self.arch
        geometry = dict(
            total_lines=arch.llc_lines,
            associativity=arch.llc_associativity,
            num_domains=arch.num_cores,
            initial_lines=self._partition_lines,
        )
        if self._organization == "way":
            from repro.sim.waypart import WayPartitionedLLC

            self.llc = WayPartitionedLLC(**geometry)
        else:
            # Fixed for good: each domain's LLC service is then a pure
            # function of its own stream (an LLC service trace).
            self.llc = PartitionedLLC(**geometry, resizable=False)
        self.monitors = [None] * arch.num_cores
        system.memories = [
            DomainMemory(arch, self.llc.view(domain))
            for domain in range(arch.num_cores)
        ]

    def on_quantum(self, system: "MultiDomainSystem", now: int) -> None:
        # No assessments, no pending actions.
        return None

    @property
    def quantum_free(self) -> bool:
        """Whether this scheme does nothing at quanta or progress points.

        True only while the class keeps Static's own :meth:`on_quantum`
        and the inherited ``progress_target`` and ``partition_size``: a
        subclass that adds per-quantum work or progress checkpoints
        keeps the system's quantum loop and gets its hook calls. Over
        fixed set partitions the system then runs each core straight
        to its finishing quantum (:meth:`MultiDomainSystem.quantum_free
        <repro.sim.system.MultiDomainSystem.quantum_free>`).
        """
        cls = type(self)
        return (
            cls.on_quantum is StaticScheme.on_quantum
            and cls.progress_target is BaseScheme.progress_target
            and cls.partition_size is BaseScheme.partition_size
        )
