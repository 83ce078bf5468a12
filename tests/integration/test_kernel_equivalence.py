"""End-to-end kernel equivalence: batched vs reference, every scheme.

The acceptance bar for the batched simulation kernel is bit-identical
*results* — not just similar statistics — for all four LLC
organizations. This test runs one full multi-domain simulation per
scheme under ``REPRO_SIM_KERNEL=reference`` and ``=batched`` and
compares everything an experiment reports: total cycles, per-workload
IPC, assessment counts, visible actions, leakage bits, and the
partition-size quartiles (which pin the whole resizing trace).

A batched core resolves long runs once and keeps them across quantum
and progress stops. Static partitions are fixed, so their runs never go
stale; a second Static case drives that path through stall streams,
pass wraps, measurement boundaries and a ``max_cycles`` cap at several
quanta. Fixed partitions do not interact, so a Static system runs no
quantum loop at all: each core runs straight to its finishing quantum,
and the loop's quanta, samples and completion are computed; further
cases hold that against the reference kernel's loop at caps, extreme
quanta and sample intervals, and check that a Static subclass with
per-quantum work keeps the loop. Private resizable partitions walk
their LLC ahead and settle the walked tail back when resized; a third
case resizes them in the middle of kept runs, at quantum and progress
stops, over the same streams, and also compares the LLC contents the
run leaves behind.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.experiment import make_scheme, run_mix_scheme
from repro.harness.runconfig import TEST
from repro.schemes.base import BaseScheme
from repro.schemes.static import StaticScheme
from repro.sim.cpu import Core
from repro.sim.hierarchy import DomainMemory
from repro.sim.kernelmode import KERNEL_ENV
from repro.sim.system import DomainSpec, MultiDomainSystem
from repro.workloads.mixes import get_mix
from repro.workloads.workload import build_workload

SCHEMES = ("static", "shared", "time", "untangle")


def _fingerprint(result) -> tuple:
    return (
        result.total_cycles,
        tuple(
            (
                w.label,
                w.ipc,
                w.assessments,
                w.visible_actions,
                w.leakage_bits,
                tuple(w.partition_quartiles),
            )
            for w in result.workloads
        ),
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_kernel_is_bit_identical(scheme, monkeypatch):
    pairs = get_mix(1)[:2]
    monkeypatch.setenv(KERNEL_ENV, "reference")
    reference = run_mix_scheme(pairs, scheme, TEST)
    monkeypatch.setenv(KERNEL_ENV, "batched")
    batched = run_mix_scheme(pairs, scheme, TEST)
    assert _fingerprint(batched) == _fingerprint(reference)


def test_shared_views_batch_at_short_quanta(monkeypatch):
    """A Shared mix-1 cell at 125-cycle quanta resolves runs, exactly.

    A shared view sizes each run to the cycle budget; below
    ``MIN_BATCH`` events it still resolves that many and lets the commit
    stop at the budget, so the cell is not stepped access by access.
    """
    pairs = get_mix(1)
    calls = {"resolves": 0, "scalar": 0}
    resolve = DomainMemory.resolve_levels
    execute = Core._execute_event

    def counted_resolve(self, *args, **kwargs):
        calls["resolves"] += 1
        return resolve(self, *args, **kwargs)

    def counted_execute(self, *args, **kwargs):
        calls["scalar"] += 1
        return execute(self, *args, **kwargs)

    monkeypatch.setenv(KERNEL_ENV, "batched")
    with monkeypatch.context() as patch:
        patch.setattr(DomainMemory, "resolve_levels", counted_resolve)
        patch.setattr(Core, "_execute_event", counted_execute)
        batched = run_mix_scheme(pairs, "shared", TEST)
    assert calls["resolves"] > 10 * calls["scalar"]
    monkeypatch.setenv(KERNEL_ENV, "reference")
    reference = run_mix_scheme(pairs, "shared", TEST)
    assert _fingerprint(batched) == _fingerprint(reference)


#: Crypto halves with secret-dependent stalls (under a nonzero secret),
#: so both streams carry stall events; the second domain wraps its
#: stream many times.
STALL_PAIRS = (("gcc_2", "RSA-2048"), ("imagick_0", "ECDSA"))


def _static_run(
    pairs, secret: int, quantum: int, max_cycles: int, scheme=None
) -> tuple:
    return _system_run(pairs, secret, quantum, max_cycles, scheme)[0]


def _system_run(
    pairs, secret: int, quantum: int, max_cycles: int, scheme=None,
    inexact=False,
):
    """One system run: its observables, and the system it left behind.

    ``inexact`` sets a 3-wide issue and a memory-level parallelism of 3:
    instruction and stall cycles are then no binary fractions, cycle sums
    round, and the order in which the kernel adds them matters.
    """
    system = _build_system(pairs, secret, quantum, scheme, inexact)
    result = system.run(max_cycles=max_cycles)
    observed = (
        result.total_cycles,
        result.completed,
        tuple(
            (
                stats.ipc,
                stats.finished,
                stats.measured_instructions,
                stats.measured_cycles,
                core.cycles,
                core.retired,
                tuple(memory.level_counts.values()),
                (memory.l1.stats.hits, memory.l1.stats.misses),
            )
            for stats, core, memory in zip(
                result.stats, system.cores, system.memories
            )
        ),
    )
    return observed, system


def _build_system(
    pairs, secret: int, quantum: int, scheme=None, inexact=False,
    sample_interval: int = TEST.sample_interval,
) -> MultiDomainSystem:
    """A system over ``pairs`` (see :func:`_system_run`), not yet run."""
    domains = []
    for index, (spec, crypto) in enumerate(pairs):
        built = build_workload(
            spec, crypto, TEST.workload_scale,
            seed=TEST.seed + index, secret=secret,
        )
        assert (built.stream.stall_cycles is not None) == bool(secret)
        core_config = built.core_config
        if inexact:
            core_config = dataclasses.replace(core_config, mlp=3.0)
        domains.append(DomainSpec(f"{spec}+{crypto}", built.stream, core_config))
    arch = TEST.arch(len(domains))
    if inexact:
        arch = dataclasses.replace(arch, issue_width=3)
    return MultiDomainSystem(
        arch,
        domains,
        scheme or make_scheme("static", TEST, len(domains)),
        quantum=quantum,
        sample_interval=sample_interval,
    )


@pytest.mark.parametrize(
    ("secret", "quantum", "max_cycles"),
    [
        (0b1011_0110, 7, TEST.max_cycles),
        (0b1011_0110, 125, TEST.max_cycles),
        (0b1011_0110, 4000, TEST.max_cycles),
        # Cuts the first domain's slice short (close_measurement_window).
        (0b1011_0110, 125, 30_000),
        # No stall events: the kept run indexes levels by event.
        (0, 125, TEST.max_cycles),
    ],
)
def test_static_kept_runs_are_bit_identical(
    secret, quantum, max_cycles, monkeypatch
):
    monkeypatch.setenv(KERNEL_ENV, "reference")
    reference = _static_run(STALL_PAIRS, secret, quantum, max_cycles)
    monkeypatch.setenv(KERNEL_ENV, "batched")
    batched = _static_run(STALL_PAIRS, secret, quantum, max_cycles)
    assert batched == reference
    assert batched[1] == (max_cycles == TEST.max_cycles)


class _CheckpointScheme(StaticScheme):
    """Static partitions plus progress checkpoints armed between quanta.

    A checkpoint appearing after a core resolved a run without one moves
    the core's stop cap below that run's end, so the kept run must be
    dropped rather than executed past the checkpoint.
    """

    def __init__(self, arch):
        super().__init__(arch)
        self._targets = [None] * arch.num_cores
        self.checkpoints: list[tuple[int, int]] = []

    def progress_target(self, domain):
        return self._targets[domain]

    def on_quantum(self, system, now):
        if now % 1000 == 0:
            for core in system.cores:
                if self._targets[core.domain] is None:
                    self._targets[core.domain] = core.public_retired + 37

    def on_progress(self, system, domain, now):
        self.checkpoints.append((domain, now))
        self._targets[domain] = None


def test_kept_runs_stop_at_checkpoints_armed_later(monkeypatch):
    runs = {}
    for mode in ("reference", "batched"):
        monkeypatch.setenv(KERNEL_ENV, mode)
        scheme = _CheckpointScheme(TEST.arch(len(STALL_PAIRS)))
        runs[mode] = (
            _static_run(STALL_PAIRS, 0b1011_0110, 125, TEST.max_cycles, scheme),
            scheme.checkpoints,
        )
    assert runs["batched"] == runs["reference"]
    assert len(runs["batched"][1]) > 10


#: Four stall-carrying domains whose slices finish in four different
#: quanta (at quantum 125: 807, 117, 836 and 110).
FIXED_PAIRS = STALL_PAIRS + (("parest_0", "RSA-4096"), ("gcc_3", "EdDSA"))


def _fixed_observed(system, result) -> tuple:
    """Everything a run reports and leaves in its cores and memories."""
    return (
        result.quanta,
        result.total_cycles,
        result.completed,
        # Full DomainStats: measurement windows and partition samples.
        tuple(result.stats),
        tuple(
            (
                core.cycles,
                core.retired,
                core.public_retired,
                core._rel_pos,
                core._mem_cursor,
                core._wraps,
                tuple(memory.level_counts.values()),
                (memory.l1.stats.hits, memory.l1.stats.misses),
            )
            for core, memory in zip(system.cores, system.memories)
        ),
    )


def _fixed_against_loop(
    monkeypatch, pairs, quantum, max_cycles,
    sample_interval=TEST.sample_interval, secret=0b1011_0110,
) -> tuple:
    """The quantum-free Static run against the reference kernel's loop."""
    runs = {}
    for mode in ("reference", "batched"):
        monkeypatch.setenv(KERNEL_ENV, mode)
        system = _build_system(
            pairs, secret, quantum, sample_interval=sample_interval
        )
        result = system.run(max_cycles=max_cycles)
        runs[mode] = (system.quantum_free, _fixed_observed(system, result))
    assert runs["reference"][0] is False
    assert runs["batched"][0] is True
    assert runs["batched"][1] == runs["reference"][1]
    return runs["batched"][1]


def test_fixed_cores_finish_in_different_quanta(monkeypatch):
    quanta, total, completed, stats, _ = _fixed_against_loop(
        monkeypatch, FIXED_PAIRS, 125, TEST.max_cycles
    )
    assert completed and total == quanta * 125
    finishing = {int(s.measure_end_cycle) // 125 + 1 for s in stats}
    assert len(finishing) == len(FIXED_PAIRS)
    # Domains finished early keep their early samples only.
    assert len({len(s.partition_samples) for s in stats}) == len(FIXED_PAIRS)


@pytest.mark.parametrize(
    ("max_cycles", "where"),
    [
        # Every domain still in warmup.
        (3_000, "warmup"),
        # Two domains finished, two mid-slice; not a quantum multiple.
        (50_001, "slice"),
        # The last domain's finishing boundary (quantum 836), exactly,
        # from just above the previous boundary, and one quantum short.
        (104_500, "finish"),
        (104_376, "finish"),
        (104_375, "slice"),
    ],
)
def test_fixed_run_caps_match_the_loop(max_cycles, where, monkeypatch):
    quanta, total, completed, stats, _ = _fixed_against_loop(
        monkeypatch, FIXED_PAIRS, 125, max_cycles
    )
    assert quanta == -(-max_cycles // 125) and total == quanta * 125
    assert completed == (where == "finish")
    if where == "warmup":
        assert all(s.measure_start_cycle is None for s in stats)
    elif where == "slice":
        assert {s.finished for s in stats} == {True, False}


@pytest.mark.parametrize(
    ("quantum", "max_cycles"),
    [(1, TEST.max_cycles), (8_000, 5_000), (4_000, 3_999)],
)
def test_fixed_run_extreme_quanta_match_the_loop(
    quantum, max_cycles, monkeypatch
):
    quanta, total, completed, _, _ = _fixed_against_loop(
        monkeypatch, STALL_PAIRS, quantum, max_cycles
    )
    if quantum > max_cycles:
        assert (quanta, total, completed) == (1, quantum, False)
    else:
        assert completed


@pytest.mark.parametrize("sample_interval", [1, 50, 125, 1_001])
def test_fixed_run_samples_match_the_loop(sample_interval, monkeypatch):
    _, _, _, stats, _ = _fixed_against_loop(
        monkeypatch, FIXED_PAIRS, 125, TEST.max_cycles, sample_interval
    )
    assert all(s.partition_samples for s in stats)


class _QuantumHookStatic(StaticScheme):
    """Fixed partitions plus a per-quantum hook that only records."""

    def __init__(self, arch):
        super().__init__(arch)
        self.hooks: list[int] = []

    def on_quantum(self, system, now):
        self.hooks.append(now)


def test_fixed_scheme_with_quantum_work_keeps_the_loop(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "batched")
    arch = TEST.arch(len(STALL_PAIRS))
    hooked = _QuantumHookStatic(arch)
    system = _build_system(STALL_PAIRS, 0b1011_0110, 125, hooked)
    assert not hooked.quantum_free and not system.quantum_free
    result = system.run(max_cycles=TEST.max_cycles)
    assert hooked.hooks == [125 * q for q in range(1, result.quanta + 1)]
    plain = _build_system(STALL_PAIRS, 0b1011_0110, 125)
    assert plain.quantum_free
    assert _fixed_observed(plain, plain.run(max_cycles=TEST.max_cycles)) == (
        _fixed_observed(system, result)
    )


class _ResizingScheme(BaseScheme):
    """Private resizable partitions, resized in the middle of kept runs.

    Every domain stops each ``period`` public instructions, and every
    other stop resizes its partition (the stops in between keep the
    walked-ahead run, which resumes inside a gap); every third quantum
    resizes one domain too. Sizes cycle through a fixed order within
    the LLC's capacity, so both shrinks and expands land while a batched
    core holds a walked-ahead run.
    """

    name = "resizing"
    SIZES = (64, 1024, 16, 256, 512, 32, 768, 128, 384)

    def __init__(self, arch, period: int = 409):
        super().__init__(arch)
        self._period = period
        self._targets = [period] * arch.num_cores
        self._next = [0] * arch.num_cores
        self._quanta = 0

    def build(self, system):
        self._build_partitioned(system, None, True)

    def _resize(self, domain):
        self.llc.resize(domain, self.SIZES[self._next[domain] % len(self.SIZES)])
        self._next[domain] += 1

    def progress_target(self, domain):
        return self._targets[domain]

    def on_progress(self, system, domain, now):
        if self._targets[domain] // self._period % 2:
            self._resize(domain)
        self._targets[domain] += self._period

    def on_quantum(self, system, now):
        self._quanta += 1
        if self._quanta % 3 == 0:
            self._resize(self._quanta // 3 % self.arch.num_cores)


def _llc_contents(system) -> tuple:
    """Each partition's resident lines in recency order, and its counters."""
    llc = system.scheme.llc
    return tuple(
        (
            cache.num_sets,
            cache.resident_addresses(),
            (cache.stats.hits, cache.stats.misses, cache.stats.evictions),
        )
        for cache in map(llc.cache_of, range(llc.num_domains))
    )


@pytest.mark.parametrize(
    ("secret", "quantum", "max_cycles", "inexact"),
    [
        (0b1011_0110, 7, TEST.max_cycles, False),
        (0b1011_0110, 125, TEST.max_cycles, False),
        (0b1011_0110, 4000, TEST.max_cycles, False),
        # Cuts the first domain's slice short (close_measurement_window).
        (0b1011_0110, 125, 30_000, False),
        # No stall events: the kept run indexes levels by event.
        (0, 125, TEST.max_cycles, False),
        # Rounding cycle sums: a kept run resumed after a progress stop
        # inside a gap must re-sum its loop tops from the core's cycles.
        (0b1011_0110, 125, TEST.max_cycles, True),
        (0, 4000, TEST.max_cycles, True),
    ],
)
def test_private_resizable_kept_runs_are_bit_identical(
    secret, quantum, max_cycles, inexact, monkeypatch
):
    runs = {}
    for mode in ("reference", "batched"):
        monkeypatch.setenv(KERNEL_ENV, mode)
        scheme = _ResizingScheme(TEST.arch(len(STALL_PAIRS)))
        observed, system = _system_run(
            STALL_PAIRS, secret, quantum, max_cycles, scheme, inexact
        )
        runs[mode] = (observed, _llc_contents(system), scheme.llc.resizes)
        settles = sum(memory.llc_settles for memory in system.memories)
    assert runs["batched"] == runs["reference"]
    assert runs["batched"][0][1] == (max_cycles == TEST.max_cycles)
    # Real resizes landed mid-run and really rolled walked tails back.
    assert len(runs["batched"][2]) > 10
    assert settles > 0


def test_unknown_kernel_mode_is_rejected(monkeypatch):
    from repro.errors import ConfigurationError
    from repro.sim.kernelmode import kernel_mode

    monkeypatch.setenv(KERNEL_ENV, "vectorized")
    with pytest.raises(ConfigurationError, match="REPRO_SIM_KERNEL"):
        kernel_mode()
