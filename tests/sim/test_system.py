"""Tests for the multicore system driver."""

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.core.actions import maintain
from repro.errors import ConfigurationError
from repro.schemes.static import StaticScheme
from repro.sim.cpu import CoreConfig, InstructionStream
from repro.sim.system import DomainSpec, MultiDomainSystem


def make_domains(arch: ArchConfig, instructions: int = 200):
    domains = []
    for i in range(arch.num_cores):
        addresses = np.full(instructions, -1, dtype=np.int64)
        addresses[::5] = 100 + np.arange(len(addresses[::5])) + i * 10_000
        stream = InstructionStream(addresses)
        domains.append(
            DomainSpec(
                name=f"d{i}",
                stream=stream,
                core_config=CoreConfig(mlp=2.0, slice_instructions=instructions),
            )
        )
    return domains


class TestConstruction:
    def test_domain_count_must_match_cores(self, tiny_arch):
        with pytest.raises(ConfigurationError):
            MultiDomainSystem(
                tiny_arch, make_domains(tiny_arch)[:1], StaticScheme(tiny_arch)
            )

    def test_bad_quantum_rejected(self, tiny_arch):
        with pytest.raises(ConfigurationError):
            MultiDomainSystem(
                tiny_arch,
                make_domains(tiny_arch),
                StaticScheme(tiny_arch),
                quantum=0,
            )


class TestRun:
    def test_runs_to_completion(self, tiny_arch):
        system = MultiDomainSystem(
            tiny_arch, make_domains(tiny_arch), StaticScheme(tiny_arch),
            quantum=50,
        )
        result = system.run(max_cycles=1_000_000)
        assert result.completed
        assert all(s.finished for s in result.stats)
        assert all(s.ipc > 0 for s in result.stats)

    def test_completed_when_finishing_in_final_quantum(self, tiny_arch):
        """Finishing during the last quantum at exactly max_cycles counts.

        Regression: ``all_finished`` was only checked at the top of the
        loop, so a run capped at precisely its own total cycle count
        reported ``completed=False`` even though every core finished.
        """
        reference = MultiDomainSystem(
            tiny_arch, make_domains(tiny_arch), StaticScheme(tiny_arch),
            quantum=50,
        ).run(max_cycles=1_000_000)
        assert reference.completed

        capped = MultiDomainSystem(
            tiny_arch, make_domains(tiny_arch), StaticScheme(tiny_arch),
            quantum=50,
        ).run(max_cycles=reference.total_cycles)
        assert all(s.finished for s in capped.stats)
        assert capped.completed

    def test_max_cycles_cap(self, tiny_arch):
        system = MultiDomainSystem(
            tiny_arch,
            make_domains(tiny_arch, instructions=100_000),
            StaticScheme(tiny_arch),
            quantum=50,
        )
        result = system.run(max_cycles=200)
        assert not result.completed
        assert result.total_cycles <= 200

    def test_capped_run_reports_partial_ipc(self, tiny_arch):
        """Regression: a domain cut short by max_cycles reported IPC 0
        even though it retired instructions the whole time — the
        measurement window was never closed."""
        system = MultiDomainSystem(
            tiny_arch,
            make_domains(tiny_arch, instructions=100_000),
            StaticScheme(tiny_arch),
            quantum=50,
        )
        result = system.run(max_cycles=200)
        assert not result.completed
        for stats in result.stats:
            assert not stats.finished
            assert stats.measured_instructions > 0
            assert stats.ipc > 0

    def test_static_scheme_has_empty_traces(self, tiny_arch):
        system = MultiDomainSystem(
            tiny_arch, make_domains(tiny_arch), StaticScheme(tiny_arch)
        )
        result = system.run()
        assert all(len(trace) == 0 for trace in result.traces)

    def test_fixed_run_beats_liveness(self, tiny_arch, monkeypatch):
        """A Static run has no quantum loop and still shows progress."""
        from repro.obs.liveness import progress_value
        from repro.sim.kernelmode import KERNEL_ENV

        monkeypatch.setenv(KERNEL_ENV, "batched")
        system = MultiDomainSystem(
            tiny_arch, make_domains(tiny_arch), StaticScheme(tiny_arch),
            quantum=50,
        )
        assert system.quantum_free
        before = progress_value()
        result = system.run(max_cycles=1_000_000)
        assert result.completed and result.quanta > 0
        assert progress_value() - before >= max(
            result.quanta, len(system.cores)
        )

    def test_partition_samples_collected(self, tiny_arch):
        system = MultiDomainSystem(
            tiny_arch,
            make_domains(tiny_arch, instructions=2_000),
            StaticScheme(tiny_arch),
            quantum=50,
            sample_interval=100,
        )
        result = system.run()
        assert len(result.stats[0].partition_samples) > 1
        sizes = {s.lines for s in result.stats[0].partition_samples}
        assert sizes == {tiny_arch.default_partition_lines}

    def test_record_action_forces_increasing_timestamps(self, tiny_arch):
        system = MultiDomainSystem(
            tiny_arch, make_domains(tiny_arch), StaticScheme(tiny_arch)
        )
        system.record_action(0, maintain(32), 100)
        system.record_action(0, maintain(32), 100)  # collision nudged
        assert system.trace_logs[0][1][1] == 101

    def test_deterministic_across_runs(self, tiny_arch):
        results = []
        for _ in range(2):
            system = MultiDomainSystem(
                tiny_arch, make_domains(tiny_arch), StaticScheme(tiny_arch),
                quantum=50,
            )
            outcome = system.run()
            results.append([s.ipc for s in outcome.stats])
        assert results[0] == results[1]
