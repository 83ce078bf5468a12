"""Global partition-size allocation (the action heuristic of Section 7).

"During a resizing assessment, the monitor picks the size for each domain
that maximizes the number of LLC hits across all domains."

This is UMON's *lookahead* algorithm (Qureshi & Patt, MICRO'06), adapted
to a discrete size alphabet: repeatedly grant the single upgrade — from a
domain's current level to *any* higher level — with the highest marginal
utility (hits gained per line spent). Considering multi-level jumps is
essential because hit curves are not generally concave: a scan-dominated
workload gains nothing until its partition covers the whole working set,
then gains everything at once; single-step greedy would starve it.

An optional hysteresis threshold suppresses upgrades whose utility is
negligible, trading a sliver of hit rate for fewer visible resizes (an
ablation knob).

:meth:`GreedyHitMaximizer.allocate` is incremental: each domain's best
jump is cached, and a round recomputes only the granted domain's jump
and the cached jumps the shrunken budget no longer affords. The result
is exactly the full per-round recompute's (see the method). It stays
pure Python: of ``repro.sim._lru``'s entry points, ``reuse_walk`` and
``umon_feed`` serve the monitor that builds its hit curves
(:mod:`repro.monitor.window`, :mod:`repro.monitor.umon`), and none
serves the allocator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AllocationResult:
    """Target sizes chosen by the allocator."""

    target_sizes: dict[int, int]
    total_allocated: int
    total_hits_estimate: float


class GreedyHitMaximizer:
    """Lookahead marginal-utility allocator over a discrete size alphabet.

    Parameters
    ----------
    candidate_sizes:
        The supported partition sizes in lines, ascending (all domains
        share one alphabet, per Table 3).
    total_lines:
        LLC capacity to distribute.
    hysteresis:
        Minimum hits-per-line marginal utility for an upgrade to be
        granted. Zero reproduces pure hit maximization.
    """

    def __init__(
        self,
        candidate_sizes: tuple[int, ...] | list[int],
        total_lines: int,
        hysteresis: float = 0.0,
    ):
        sizes = list(candidate_sizes)
        if not sizes or sizes != sorted(set(sizes)):
            raise ConfigurationError("candidate sizes must be unique and ascending")
        if total_lines < sizes[0]:
            raise ConfigurationError("LLC smaller than the smallest partition")
        if hysteresis < 0:
            raise ConfigurationError("hysteresis must be non-negative")
        self._sizes = sizes
        self._total = total_lines
        self._hysteresis = hysteresis

    @property
    def candidate_sizes(self) -> list[int]:
        return list(self._sizes)

    @property
    def total_lines(self) -> int:
        return self._total

    # ------------------------------------------------------------------
    def _best_jump(
        self, curve: list[float], level: int, budget: int
    ) -> tuple[float, int, float] | None:
        """Best upgrade from ``level`` to any affordable higher level.

        Returns ``(utility, new_level, gain)`` or ``None``. This is the
        lookahead step: utility is evaluated against every reachable
        level, not just the next one. The first of tied maxima wins.
        """
        sizes = self._sizes
        base_size = sizes[level]
        base_hits = curve[level]
        best = None
        for k in range(level + 1, len(sizes)):
            cost = sizes[k] - base_size
            if cost > budget:
                break
            gain = curve[k] - base_hits
            if gain <= 0:
                continue
            utility = gain / cost
            if best is None or utility > best[0]:
                best = (utility, k, gain)
        return best

    def allocate(self, hit_curves: dict[int, np.ndarray]) -> AllocationResult:
        """Choose per-domain target sizes maximizing estimated total hits.

        ``hit_curves[d][k]`` is domain ``d``'s estimated hits at size
        ``candidate_sizes[k]`` over the monitor window. Every domain is
        guaranteed the smallest size; upgrades are granted by lookahead
        marginal utility until capacity or utility is exhausted.

        Each round grants the first domain, in ``hit_curves`` order,
        whose best jump has the highest utility. A domain's best jump
        depends only on its level and the budget, and is cached. After
        a grant only the granted domain's level changes and the budget
        shrinks, so the affordable levels of every other domain only
        lose their most expensive ones: a cached jump that is still
        affordable is still the first maximum over what is left (and a
        domain with no jump still has none). Only the granted domain's
        jump and the cached jumps that cost more than the new budget
        are recomputed, which gives the grants of a full recompute.
        """
        sizes = self._sizes
        for domain, curve in hit_curves.items():
            if len(curve) != len(sizes):
                raise ConfigurationError(
                    f"hit curve of domain {domain} has {len(curve)} entries, "
                    f"expected {len(sizes)}"
                )
        if len(hit_curves) * sizes[0] > self._total:
            raise ConfigurationError(
                f"{len(hit_curves)} domains cannot each get the minimum "
                f"{sizes[0]} lines out of {self._total}"
            )

        curves = {
            domain: np.asarray(curve, dtype=np.float64).tolist()
            for domain, curve in hit_curves.items()
        }
        level = {domain: 0 for domain in curves}
        budget = self._total - len(curves) * sizes[0]
        total_hits = sum(curve[0] for curve in curves.values())
        best_jump = self._best_jump
        jumps = {
            domain: best_jump(curve, 0, budget) for domain, curve in curves.items()
        }

        while True:
            best_domain = None
            best_utility = self._hysteresis
            for domain, jump in jumps.items():
                if jump is not None and jump[0] > best_utility:
                    best_domain = domain
                    best_utility = jump[0]
            if best_domain is None:
                break
            _, best_level, gain = jumps[best_domain]
            budget -= sizes[best_level] - sizes[level[best_domain]]
            level[best_domain] = best_level
            total_hits += gain
            for domain, jump in jumps.items():
                if domain == best_domain or (
                    jump is not None and sizes[jump[1]] - sizes[level[domain]] > budget
                ):
                    jumps[domain] = best_jump(curves[domain], level[domain], budget)

        targets = {domain: sizes[k] for domain, k in level.items()}
        return AllocationResult(
            target_sizes=targets,
            total_allocated=self._total - budget,
            total_hits_estimate=total_hits,
        )

    def feasible_size(self, target: int, current: int, available: int) -> int:
        """Clamp a domain's target to what capacity currently allows.

        ``available`` is the domain's current size plus free LLC capacity.
        Used when domains assess at different times (Untangle): a domain
        moves to its global target if it fits, else to the largest
        supported size that does.
        """
        if target <= available:
            return target
        feasible = [s for s in self._sizes if s <= available]
        if not feasible:
            return current
        return feasible[-1]
