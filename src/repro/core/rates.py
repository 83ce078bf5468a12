"""Precomputed maximum-rate tables (Sections 5.3.4 and 7 of the paper).

Computing ``R_max`` involves the iterative Dinkelbach optimization of
Appendix A, which is too expensive to run at every resizing assessment.
The paper therefore proposes a small hardware table whose entry ``i``
stores the precomputed leakage rate ``R_max_i`` corresponding to ``i``
consecutive Maintain actions — equivalent to a stretched cooldown of
``(i + 1) T_c``. :class:`RmaxTable` is the software model of that table.

Runtime usage (Section 7): if the victim has chosen Maintain ``m``
consecutive times, the accountant conservatively assumes the *next*
action is visible and charges at rate ``R_max_m``; when the next action
turns out to be another Maintain, the charge for that interval is
retroactively lowered to rate ``R_max_{m+1}``. If ``m`` exceeds the table
capacity, the last entry's rate is used conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.covert import CovertChannelModel
from repro.core.dinkelbach import solve_rmax_levels
from repro.errors import ChannelModelError
from repro.obs import metrics as obs_metrics

#: Counts Dinkelbach solves in this process — the precompute store
#: (``repro.harness.store``) exists to keep this at one per table level
#: per campaign, and zero on a warm store.
_M_SOLVES = obs_metrics.get_registry().counter(
    "repro_rmax_solves_total",
    "Dinkelbach R_max solves performed in this process",
)


@dataclass(frozen=True)
class RateEntry:
    """One table entry: the certified max rate after ``maintains`` Maintains."""

    maintains: int
    effective_cooldown: int
    rate: float
    rate_upper_bound: float
    bits_per_transmission: float
    average_transmission_time: float


class RmaxTable:
    """Table of certified scheduling-leakage rates, indexed by Maintain count.

    Parameters
    ----------
    base_model:
        The covert-channel model for a single cooldown ``T_c`` (zero
        consecutive Maintains). Entry ``i`` is computed from a copy of this
        model with cooldown ``(i + 1) T_c``.
    capacity:
        Number of entries (maximum Maintain count represented). Counts
        beyond the capacity reuse the last entry, which is conservative
        because rates decrease with the effective cooldown.
    solver_iterations / solver_seed:
        Forwarded to :func:`repro.core.dinkelbach.solve_rmax_levels`.
    """

    def __init__(
        self,
        base_model: CovertChannelModel,
        capacity: int = 8,
        *,
        solver_iterations: int = 300,
        solver_seed: int = 0,
        lazy: bool = True,
    ):
        if capacity < 1:
            raise ChannelModelError(f"table capacity {capacity} must be >= 1")
        self._base_model = base_model
        self._capacity = capacity
        self._solver_iterations = solver_iterations
        self._solver_seed = solver_seed
        self._entries: dict[int, RateEntry] = {}
        # Materialized levels: exact entries for small Maintain counts,
        # log-spaced beyond 8 (a lookup rounds *down* to the nearest
        # level, i.e. to a shorter effective cooldown — conservative,
        # since rates decrease with cooldown). This keeps the number of
        # Dinkelbach solves small even for large capacities.
        levels = set(range(min(8, capacity)))
        level = 8
        while level < capacity:
            levels.add(level)
            level = level + max(1, level // 2)
        levels.add(capacity - 1)
        self._levels = sorted(levels)
        if not lazy:
            self._solve(self._levels)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def base_model(self) -> CovertChannelModel:
        return self._base_model

    @property
    def cooldown(self) -> int:
        return self._base_model.cooldown

    def _solve(self, levels: list[int]) -> None:
        """Solve the levels of ``levels`` not yet held, together.

        Level ``m`` is ``R'_max`` of the base model at cooldown
        ``(m + 1) T_c``, seeded ``solver_seed + m``. The levels share one
        transition matrix, so they run in one lock-step Dinkelbach loop;
        each entry is bit-identical to solving its level alone with
        :func:`repro.core.dinkelbach.solve_rmax`.
        """
        missing = [level for level in levels if level not in self._entries]
        if not missing:
            return
        _M_SOLVES.inc(len(missing))
        cooldowns = [(m + 1) * self.cooldown for m in missing]
        results = solve_rmax_levels(
            [self._base_model.with_cooldown(cooldown) for cooldown in cooldowns],
            [self._solver_seed + m for m in missing],
            inner_iterations=self._solver_iterations,
        )
        for m, cooldown, result in zip(missing, cooldowns, results):
            self._entries[m] = RateEntry(
                maintains=m,
                effective_cooldown=cooldown,
                rate=result.rate,
                rate_upper_bound=result.rate_upper_bound,
                bits_per_transmission=result.bits_per_transmission,
                average_transmission_time=result.average_transmission_time,
            )

    def entry(self, maintains: int) -> RateEntry:
        """The table entry for ``maintains`` consecutive Maintains.

        Counts between materialized levels round down to the nearest
        level, and counts beyond the capacity clamp to the last level —
        both directions are conservative (shorter effective cooldown,
        higher rate).
        """
        if maintains < 0:
            raise ChannelModelError("maintain count must be non-negative")
        clamped = min(maintains, self._capacity - 1)
        level = max(l for l in self._levels if l <= clamped)
        if level not in self._entries:
            self._solve([level])
        return self._entries[level]

    def rate(self, maintains: int) -> float:
        """Certified rate bound (bits per time unit) after ``maintains`` Maintains."""
        return self.entry(maintains).rate_upper_bound

    def bits_for_interval(self, maintains: int, interval: int) -> float:
        """Leakage charged for an interval at the ``maintains``-level rate.

        The covert channel transmits continuously at at most ``R_max_m``
        bits per time unit, so an interval of length ``interval`` is
        charged ``R_max_m * interval`` bits.
        """
        if interval < 0:
            raise ChannelModelError("interval must be non-negative")
        return self.rate(maintains) * interval

    def entries(self) -> list[RateEntry]:
        """All materialized-level entries, solving any outstanding together."""
        self._solve(self._levels)
        return [self._entries[i] for i in self._levels]

    def preload(self, entries: list[RateEntry]) -> bool:
        """Adopt previously solved entries instead of solving.

        Returns ``True`` only when every materialized level is covered by
        an entry whose ``effective_cooldown`` matches this table's model
        — a mismatched or incomplete set (e.g. a stale store artifact)
        is rejected wholesale and the table stays unsolved, so the
        caller falls back to computing.
        """
        by_level = {entry.maintains: entry for entry in entries}
        for level in self._levels:
            entry = by_level.get(level)
            if (
                entry is None
                or entry.effective_cooldown
                != (level + 1) * self._base_model.cooldown
            ):
                return False
        self._entries.update(
            (level, by_level[level]) for level in self._levels
        )
        return True

    @property
    def levels(self) -> list[int]:
        """The Maintain counts at which exact entries are materialized."""
        return list(self._levels)

    def __len__(self) -> int:
        return self._capacity


def worst_case_table(base_model: CovertChannelModel, **kwargs) -> RmaxTable:
    """A table of capacity 1: every assessment charged at ``R_max_0``.

    This disables the Maintain optimization of Section 5.3.4 and models
    the active-attacker environment of Section 6.2 / Section 9, where the
    attacker squeezes the victim into making a visible action at every
    assessment.
    """
    kwargs.setdefault("capacity", 1)
    return RmaxTable(base_model, **kwargs)
