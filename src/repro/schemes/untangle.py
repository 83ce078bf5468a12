"""The Untangle scheme (Section 5 of the paper; "Untangle" row of Table 4).

Construction follows the two design principles plus annotations:

* **Principle 1** — the utilization metric is the UMON monitor fed only
  with *retired, public* post-L1 accesses in program order
  (``timing_independent=True``; annotation filtering happens in
  :class:`repro.sim.hierarchy.DomainMemory`).
* **Principle 2** — assessments happen every ``N`` retired public
  instructions (:class:`repro.schemes.schedule.ProgressSchedule`), with a
  cooldown ``T_c`` (Mechanism 1) and a uniform random action delay
  (Mechanism 2).

Consequently the resizing *action sequence* is a deterministic function
of the public retired instruction sequence — zero action leakage — and
the only leakage is scheduling leakage, charged at runtime from the
precomputed :class:`~repro.core.rates.RmaxTable` using the
consecutive-Maintain optimization of Sections 5.3.4 and 7.

Both principles are mechanically checked at construction via
:func:`repro.core.principles.require_untangle_compliant`; building an
Untangle scheme over a timing-dependent metric raises
:class:`~repro.errors.PrincipleViolation`.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.config import DEFAULT_TABLE_CAPACITY, ArchConfig
from repro.core.accountant import LeakageAccountant
from repro.core.actions import ResizingAction
from repro.core.covert import CovertChannelModel, uniform_delay
from repro.core.principles import (
    require_progress_based_schedule,
    require_timing_independent_metric,
)
from repro.core.rates import RateEntry, RmaxTable
from repro.monitor.umon import UMONMonitor
from repro.schemes.allocation import GreedyHitMaximizer
from repro.schemes.base import BaseScheme
from repro.schemes.schedule import ProgressSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import MultiDomainSystem


@dataclass(frozen=True)
class RateTableKey:
    """The full identity of one memoized rate table.

    An explicit key (rather than ``lru_cache`` argument tuples) so the
    same table is one cache entry no matter how the call spells its
    arguments — ``get_rate_table(4000)`` and
    ``get_rate_table(4000, capacity=48)`` used to be *distinct*
    ``lru_cache`` entries, costing a full re-solve. The memo stores the
    cooldown of the channel model (:func:`default_channel_model` rounds
    it to the timing resolution), so ``get_rate_table(500)`` and
    ``get_rate_table(496)`` share one entry too. ``worst_case`` keeps
    the unoptimized (capacity-1, ``R_max_0``-only) table from ever
    colliding with an optimized table's entry.
    """

    cooldown: int
    resolution_divisor: int = 16
    horizon_cooldowns: int = 4
    capacity: int = DEFAULT_TABLE_CAPACITY
    worst_case: bool = False


_RATE_TABLES: dict[RateTableKey, RmaxTable] = {}


def clear_rate_table_cache() -> None:
    """Drop every memoized table (test hook; also frees solver results)."""
    _RATE_TABLES.clear()


def get_rate_table(
    cooldown: int,
    resolution_divisor: int = 16,
    horizon_cooldowns: int = 4,
    capacity: int = DEFAULT_TABLE_CAPACITY,
) -> RmaxTable:
    """A process-wide memoized, fully materialized rate table.

    Computing the table runs the Dinkelbach solver once per entry
    (~0.1 s each); experiments share tables across scheme instances the
    way the paper's hardware would ship one precomputed table. When a
    precompute store is active the solved entries are also persisted and
    reloaded across processes — see :mod:`repro.harness.store`.
    """
    return _rate_table(
        RateTableKey(
            cooldown=cooldown,
            resolution_divisor=resolution_divisor,
            horizon_cooldowns=horizon_cooldowns,
            capacity=capacity,
        )
    )


def get_worst_case_rate_table(
    cooldown: int,
    resolution_divisor: int = 16,
    horizon_cooldowns: int = 4,
) -> RmaxTable:
    """The memoized capacity-1 table for unoptimized accounting.

    Keyed separately from the optimized tables (``worst_case=True``) so
    ``untangle-unopt`` never pollutes — or is served from — the
    optimized-table cache.
    """
    return _rate_table(
        RateTableKey(
            cooldown=cooldown,
            resolution_divisor=resolution_divisor,
            horizon_cooldowns=horizon_cooldowns,
            capacity=1,
            worst_case=True,
        )
    )


_SOLVES_DEFERRED = False


@contextmanager
def unsolved_rate_tables() -> Iterator[None]:
    """Hand out unsolved tables instead of solving, for this block.

    Inside the block a table that is neither memoized nor stored comes
    back lazy — a :class:`RmaxTable` whose entries solve on first
    read — and is *not* memoized, so nothing unsolved outlives the
    block (or reaches a process forked after it). Building a scheme only
    to learn its structure (e.g. its monitors' trace specs) then costs
    no Dinkelbach solve. Re-entrant.
    """
    global _SOLVES_DEFERRED
    previous = _SOLVES_DEFERRED
    _SOLVES_DEFERRED = True
    try:
        yield
    finally:
        _SOLVES_DEFERRED = previous


def _rate_table(key: RateTableKey, *, solve: bool = True) -> RmaxTable | None:
    """Memoizer behind :func:`get_rate_table`: solve once per key.

    Order of consultation: process memo → precompute-store artifact
    (exact JSON round-trip of the solved entries, keyed by the full
    channel-model parameters) → Dinkelbach solves. The solved entries
    are exported back to the store so other processes — and future
    campaigns — skip the solve entirely. With ``solve=False`` a table
    found in neither returns ``None``; inside
    :func:`unsolved_rate_tables` it returns lazy and unmemoized.
    """
    # Cooldowns that round to one channel model share one entry: a
    # profile's raw cooldown and its schedule's rounded one name the
    # same table.
    key = dataclasses.replace(
        key, cooldown=_model_cooldown(key.cooldown, key.resolution_divisor)
    )
    table = _RATE_TABLES.get(key)
    if table is not None:
        return table
    model = default_channel_model(
        key.cooldown, key.resolution_divisor, key.horizon_cooldowns
    )
    table = RmaxTable(model, capacity=key.capacity)

    # The store import is lazy and optional: schemes must stay usable
    # without the harness (e.g. library users constructing one scheme).
    store = None
    try:
        from repro.harness.store import get_active_store, rmax_token

        store = get_active_store()
    except ImportError:  # pragma: no cover - harness always ships
        pass

    token = None
    if store is not None:
        token = rmax_token(
            model, key.capacity, table._solver_iterations, table._solver_seed
        )
        stored = store.rmax_entries(token)
        if stored is not None and table.preload(
            [RateEntry(**entry) for entry in stored]
        ):
            _RATE_TABLES[key] = table
            return table
    if not solve:
        return None
    if _SOLVES_DEFERRED:
        return table
    if store is not None:
        store.count_rmax_miss()

    entries = table.entries()
    if store is not None and token is not None:
        store.put_rmax_entries(
            token, [dataclasses.asdict(entry) for entry in entries]
        )
    _RATE_TABLES[key] = table
    return table


def _populate_key(
    cooldown: int, capacity: int, worst_case: bool
) -> RateTableKey:
    """The memo key of the table a store need names."""
    return RateTableKey(
        cooldown=cooldown,
        capacity=1 if worst_case else capacity,
        worst_case=worst_case,
    )


def populate_rate_table(
    cooldown: int,
    *,
    capacity: int = DEFAULT_TABLE_CAPACITY,
    worst_case: bool = False,
) -> RmaxTable:
    """Pre-solve (or pre-load) the table a campaign's cells will request.

    Called by :meth:`repro.harness.store.PrecomputeStore.populate` —
    in the engine's process before a serial run, or on a pool worker
    ahead of the cells that read the table — so later readers load the
    store artifact (or inherit the solved memo) instead of re-running
    the solver.
    """
    return _rate_table(_populate_key(cooldown, capacity, worst_case))


def load_rate_table(
    cooldown: int,
    *,
    capacity: int = DEFAULT_TABLE_CAPACITY,
    worst_case: bool = False,
) -> bool:
    """Memoize the table from the memo or the store, never solving.

    Returns whether the table is now memoized (``False``: it still
    needs a solve).
    """
    key = _populate_key(cooldown, capacity, worst_case)
    return _rate_table(key, solve=False) is not None


def _model_cooldown(cooldown: int, resolution_divisor: int) -> int:
    """``cooldown`` rounded down to its timing resolution (idempotent)."""
    resolution = max(1, cooldown // resolution_divisor)
    return (cooldown // resolution) * resolution


def default_channel_model(
    cooldown: int,
    resolution_divisor: int = 16,
    horizon_cooldowns: int = 4,
) -> CovertChannelModel:
    """The evaluation's covert-channel model for a given cooldown.

    Resolution is ``T_c / resolution_divisor`` (the attacker's timing
    granularity relative to the cooldown) and the sender's duration
    horizon spans ``horizon_cooldowns`` cooldowns; the max rate is
    insensitive to the horizon beyond a few cooldowns because long
    durations are rate-inefficient (Section 5.3.1).
    """
    resolution = max(1, cooldown // resolution_divisor)
    cooldown = _model_cooldown(cooldown, resolution_divisor)
    return CovertChannelModel(
        cooldown=cooldown,
        resolution=resolution,
        max_duration=horizon_cooldowns * cooldown,
        delay=uniform_delay(cooldown, resolution),
    )


class UntangleScheme(BaseScheme):
    """Progress-scheduled, annotation-aware dynamic partitioning."""

    name = "untangle"

    def __init__(
        self,
        arch: ArchConfig,
        schedule: ProgressSchedule,
        rmax_table: RmaxTable | None = None,
        *,
        monitor_window: int = 100_000,
        monitor_sampling_shift: int = 0,
        hysteresis: float = 0.0,
        leakage_threshold_bits: float | None = None,
        optimized_accounting: bool = True,
        table_capacity: int = DEFAULT_TABLE_CAPACITY,
        organization: str = "set",
    ):
        super().__init__(arch)
        self.schedule = schedule
        if rmax_table is None:
            if optimized_accounting:
                rmax_table = get_rate_table(
                    schedule.cooldown, capacity=table_capacity
                )
            else:
                rmax_table = get_worst_case_rate_table(schedule.cooldown)
        self.rmax_table = rmax_table
        self._monitor_window = monitor_window
        self._monitor_sampling_shift = monitor_sampling_shift
        self.allocator = GreedyHitMaximizer(
            arch.supported_partition_lines, arch.llc_lines, hysteresis
        )
        self.accountants = [
            LeakageAccountant(rmax_table, leakage_threshold_bits)
            for _ in range(arch.num_cores)
        ]
        self._targets = [schedule.first_target()] * arch.num_cores
        self._last_assessment: list[int | None] = [None] * arch.num_cores
        #: Capacity committed by assessments (may lead the physical sizes
        #: while delayed actions are in flight).
        self._committed = [arch.default_partition_lines] * arch.num_cores
        #: Debounce state: last assessment's allocator target per domain.
        #: A resize is taken only when two consecutive assessments agree —
        #: hysteresis against epoch noise. Pure function of monitor
        #: snapshots, so it preserves timing independence.
        self._last_targets: list[int | None] = [None] * arch.num_cores
        #: Monitored-access-rate estimates (accesses per retired public
        #: instruction), updated at each domain's own assessments. Used to
        #: normalize demand curves to a common per-N-instructions basis:
        #: the monitor window holds a fixed number of accesses, so an
        #: idle domain's stale window would otherwise look as demanding
        #: as a busy one's.
        self._access_rate: list[float | None] = [None] * arch.num_cores
        self._last_observed: list[int] = [0] * arch.num_cores
        self._organization = organization

    # ------------------------------------------------------------------
    def build(self, system: "MultiDomainSystem") -> None:
        monitors = [
            UMONMonitor(
                self.arch.supported_partition_lines,
                window=self._monitor_window,
                sampling_shift=self._monitor_sampling_shift,
                timing_independent=True,
            )
            for _ in range(self.arch.num_cores)
        ]
        # Construction-time principle check (Section 5.2): a
        # timing-dependent metric or time-based schedule is rejected.
        # Every per-core monitor is checked, not a representative one.
        for monitor in monitors:
            require_timing_independent_metric(monitor)
        require_progress_based_schedule(self.schedule)
        self._build_partitioned(
            system,
            monitors=monitors,
            monitor_respects_annotations=True,
            organization=self._organization,
        )

    # ------------------------------------------------------------------
    def progress_target(self, domain: int) -> int | None:
        return self._targets[domain]

    def on_progress(self, system: "MultiDomainSystem", domain: int, now: int) -> None:
        """One per-domain resizing assessment at an exact progress point."""
        assert self.llc is not None
        core = system.cores[domain]
        assessment_time = self.schedule.assessment_time(
            now, self._last_assessment[domain]
        )

        # Update this domain's access-rate estimate (accesses per public
        # instruction over the last epoch — a pure function of its
        # retired instruction stream).
        observed = self.monitors[domain].total_observed
        epoch_rate = (
            (observed - self._last_observed[domain])
            / self.schedule.instructions_per_assessment
        )
        previous_rate = self._access_rate[domain]
        self._access_rate[domain] = (
            epoch_rate
            if previous_rate is None
            else 0.5 * previous_rate + 0.5 * epoch_rate
        )
        self._last_observed[domain] = observed

        # Action heuristic: global hit-maximizing allocation over the
        # timing-independent monitor snapshots, normalized to expected
        # hits per N public instructions so domains compete on live
        # demand rather than window volume.
        curves = {}
        for d in range(self.arch.num_cores):
            curve = self.monitors[d].hits_per_size()
            in_window = max(self.monitors[d].epoch_accesses(), 1.0)
            rate = self._access_rate[d]
            if rate is None:
                weight = 1.0
            else:
                expected = rate * self.schedule.instructions_per_assessment
                weight = expected / in_window
            curves[d] = curve * weight
        allocation = self.allocator.allocate(curves)
        current = self._committed[domain]
        target = allocation.target_sizes[domain]
        new_size = current
        if target != current and target == self._last_targets[domain]:
            # Feasibility against *committed* capacity: decisions reserve
            # lines immediately even though the visible resize is delayed.
            committed_available = (
                self.allocator.total_lines - sum(self._committed) + current
            )
            new_size = self.allocator.feasible_size(
                target, current, committed_available
            )
        self._last_targets[domain] = target

        accountant = self.accountants[domain]
        if not accountant.resizing_allowed:
            # Budget exhausted: the victim may not resize any further
            # (Section 4) — performance may suffer, security does not.
            new_size = current

        action = ResizingAction(new_size=new_size, old_size=current)
        bits = accountant.on_assessment(assessment_time, action.is_visible)

        delay = self.schedule.draw_delay()
        apply_time = assessment_time + delay
        if action.is_visible:
            self._committed[domain] = new_size
            self.schedule_resize(apply_time, domain, new_size)
        self.record_assessment(system, domain, action, apply_time, bits)

        # Progress toward the next assessment restarts now (Figure 6).
        # The monitor window is NOT reset: it ages continuously over the
        # last M_w monitored accesses (Section 8's sliding window), so a
        # domain's demand curve is stable no matter when another domain's
        # staggered assessment samples it. The window contents remain a
        # pure function of the retired public access sequence.
        self._targets[domain] = self.schedule.next_target(core.public_retired)
        self._last_assessment[domain] = assessment_time

    # ------------------------------------------------------------------
    def accountant_report(self, domain: int):
        """The domain's leakage report (Section 7 accounting)."""
        return self.accountants[domain].report()
