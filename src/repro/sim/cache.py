"""Set-associative cache models.

The basic building block of the memory hierarchy: a tag-only
set-associative cache with LRU replacement (fast path) or a pluggable
policy (slow path). Addresses are *line* addresses — the byte-offset
within a line never matters to this model.

Two implementations live here:

* :class:`SetAssociativeCache` — the production kernel. Each set is a
  packed-recency structure (an insertion-ordered dict whose key order
  *is* the LRU order), giving O(1) hit/install/evict instead of the
  O(associativity) list scans of the original model, and
  :meth:`SetAssociativeCache.access_run` resolves a whole run of line
  addresses in one call — the batched entry point the L1 service
  trace (:class:`repro.sim.hierarchy.L1ServiceTrace`) and the monitor
  filter walk with.
* :class:`ReferenceSetAssociativeCache` — the original per-access,
  list-based model, retained verbatim as the reference implementation
  for differential testing (``REPRO_SIM_KERNEL=reference`` selects it
  everywhere; see :mod:`repro.sim.kernelmode`).

Resizing support: partitions change their number of sets at runtime
(set partitioning, Section 8). :meth:`SetAssociativeCache.resize_sets`
re-hashes surviving lines into the new geometry, preserving per-set
recency order and evicting overflow — modeling a partition reconfiguration
in which lines whose set index is unchanged survive. Both implementations
produce bit-identical resize outcomes (the interleaved-LRU rehash order
is part of the model's contract and is pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.replacement import LRUPolicy, ReplacementPolicy


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0


class SetAssociativeCache:
    """A tag-only set-associative cache (packed-recency kernel).

    Parameters
    ----------
    num_sets:
        Number of sets (any positive integer; non-power-of-two values are
        supported because 3 MB / 6 MB partitions produce them).
    associativity:
        Ways per set.
    policy:
        Replacement policy object; ``None`` (or an explicit
        :class:`~repro.sim.replacement.LRUPolicy`) selects the fast
        packed-recency path. Other policies fall back to list-based sets.
    """

    __slots__ = (
        "num_sets",
        "associativity",
        "_sets",
        "_policy",
        "_lru",
        "_resident",
        "stats",
    )

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        policy: ReplacementPolicy | None = None,
    ):
        if num_sets < 1:
            raise ConfigurationError(f"num_sets {num_sets} must be >= 1")
        if associativity < 1:
            raise ConfigurationError(f"associativity {associativity} must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self._policy = policy
        self._lru = policy is None or isinstance(policy, LRUPolicy)
        # LRU path: dict per set, insertion order == LRU-first order.
        # Generic-policy path: list per set (policies index into lists).
        self._sets: list = (
            [{} for _ in range(num_sets)]
            if self._lru
            else [[] for _ in range(num_sets)]
        )
        self._resident = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    @property
    def capacity_lines(self) -> int:
        """Total lines the cache can hold."""
        return self.num_sets * self.associativity

    @property
    def resident_lines(self) -> int:
        """Lines currently resident (O(1): an incrementally maintained count)."""
        return self._resident

    def set_index(self, line_addr: int) -> int:
        """The set a line address maps to."""
        return line_addr % self.num_sets

    def contains(self, line_addr: int) -> bool:
        """Whether the line is resident (no state update)."""
        return line_addr in self._sets[line_addr % self.num_sets]

    def resident_addresses(self) -> list[int]:
        """All resident line addresses (LRU-first within each set)."""
        resident: list[int] = []
        for ways in self._sets:
            resident.extend(ways)
        return resident

    # ------------------------------------------------------------------
    def access(self, line_addr: int) -> bool:
        """Access a line; returns ``True`` on hit.

        On a miss the line is installed, evicting the policy's victim if
        the set is full.
        """
        ways = self._sets[line_addr % self.num_sets]
        if self._lru:
            # Packed-recency fast path: O(1) membership + move-to-MRU.
            if line_addr in ways:
                del ways[line_addr]
                ways[line_addr] = None
                self.stats.hits += 1
                return True
            self.stats.misses += 1
            if len(ways) >= self.associativity:
                del ways[next(iter(ways))]
                self.stats.evictions += 1
            else:
                self._resident += 1
            ways[line_addr] = None
            return False

        # Generic path with a pluggable policy.
        assert self._policy is not None
        try:
            index = ways.index(line_addr)
        except ValueError:
            self.stats.misses += 1
            if len(ways) >= self.associativity:
                victim = self._policy.victim_index(ways)
                ways.pop(victim)
                self.stats.evictions += 1
            else:
                self._resident += 1
            ways.append(line_addr)
            return False
        self._policy.on_hit(ways, index)
        self.stats.hits += 1
        return True

    def access_run(self, addrs: np.ndarray) -> tuple[np.ndarray, int]:
        """Resolve a run of line addresses in one call.

        Returns ``(hits, evictions)``: a boolean hit/miss vector aligned
        with ``addrs`` and the number of evictions the run caused. The
        cache state and counters afterwards are exactly as if each
        address had been passed to :meth:`access` in order.
        """
        if not self._lru:
            before = self.stats.evictions
            hits = np.array([self.access(int(a)) for a in addrs], dtype=bool)
            return hits, self.stats.evictions - before

        sets = self._sets
        num_sets = self.num_sets
        assoc = self.associativity
        misses = 0
        evictions = 0
        resident = self._resident
        out: list[bool] = []
        append = out.append
        for addr in addrs.tolist():
            ways = sets[addr % num_sets]
            if addr in ways:
                del ways[addr]
                ways[addr] = None
                append(True)
            else:
                misses += 1
                if len(ways) >= assoc:
                    del ways[next(iter(ways))]
                    evictions += 1
                else:
                    resident += 1
                ways[addr] = None
                append(False)
        self._resident = resident
        stats = self.stats
        stats.hits += len(out) - misses
        stats.misses += misses
        stats.evictions += evictions
        return np.array(out, dtype=bool), evictions

    def snapshot_for(self, addrs: np.ndarray) -> tuple:
        """Copy-on-write snapshot covering the sets ``addrs`` map to.

        Captures exactly the state an :meth:`access_run` over ``addrs``
        can change — the touched sets, the stats counters, and the
        resident count — so a speculative run can be undone with
        :meth:`restore_snapshot`. Cost is proportional to the run, not
        the cache.
        """
        sets = self._sets
        touched = set((addrs % self.num_sets).tolist())
        if self._lru:
            saved: dict = {index: dict(sets[index]) for index in touched}
        else:
            saved = {index: list(sets[index]) for index in touched}
        stats = self.stats
        return (
            saved,
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.invalidations,
            self._resident,
        )

    def restore_snapshot(self, snapshot: tuple) -> None:
        """Undo every state change made since the matching snapshot."""
        saved, hits, misses, evictions, invalidations, resident = snapshot
        sets = self._sets
        for index, ways in saved.items():
            sets[index] = ways
        stats = self.stats
        stats.hits = hits
        stats.misses = misses
        stats.evictions = evictions
        stats.invalidations = invalidations
        self._resident = resident

    def probe(self, line_addr: int, touch: bool = False) -> bool:
        """Non-allocating lookup: hit status without installing on miss.

        By default the probe is truly read-only — no recency or counter
        state changes, so attackers and diagnostics can inspect residency
        without perturbing the replacement state. Pass ``touch=True`` to
        additionally apply the same recency update a hitting
        :meth:`access` would (an explicit "touching probe").
        """
        ways = self._sets[line_addr % self.num_sets]
        if self._lru:
            if line_addr not in ways:
                return False
            if touch:
                del ways[line_addr]
                ways[line_addr] = None
            return True
        try:
            index = ways.index(line_addr)
        except ValueError:
            return False
        if touch:
            assert self._policy is not None
            self._policy.on_hit(ways, index)
        return True

    def invalidate(self, line_addr: int) -> bool:
        """Remove one line if resident; returns whether it was."""
        ways = self._sets[line_addr % self.num_sets]
        if self._lru:
            if line_addr not in ways:
                return False
            del ways[line_addr]
        else:
            try:
                ways.remove(line_addr)
            except ValueError:
                return False
        self._resident -= 1
        self.stats.invalidations += 1
        return True

    def invalidate_all(self) -> int:
        """Flush the cache; returns the number of lines dropped."""
        dropped = self._resident
        self._sets = (
            [{} for _ in range(self.num_sets)]
            if self._lru
            else [[] for _ in range(self.num_sets)]
        )
        self._resident = 0
        self.stats.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    def resize_sets(self, new_num_sets: int) -> int:
        """Change the number of sets, re-hashing surviving lines.

        Lines are re-inserted in global LRU-first order so that per-set
        recency is preserved as well as possible; lines overflowing their
        new set are dropped. Returns the number of lines lost.
        """
        if new_num_sets < 1:
            raise ConfigurationError(f"num_sets {new_num_sets} must be >= 1")
        if new_num_sets == self.num_sets:
            return 0
        old_sets = [list(ways) for ways in self._sets]
        survivors: list[int] = []
        # Interleave sets preserving intra-set LRU order: take the i-th
        # most-recent line of every set in rounds, oldest round first.
        max_depth = max((len(w) for w in old_sets), default=0)
        for depth in range(max_depth):
            for ways in old_sets:
                if depth < len(ways):
                    survivors.append(ways[depth])
        lost = 0
        self.num_sets = new_num_sets
        associativity = self.associativity
        if self._lru:
            new_dicts: list[dict[int, None]] = [{} for _ in range(new_num_sets)]
            for line_addr in survivors:
                ways = new_dicts[line_addr % new_num_sets]
                if len(ways) >= associativity:
                    lost += 1
                    continue
                ways[line_addr] = None
            self._sets = new_dicts
        else:
            new_lists: list[list[int]] = [[] for _ in range(new_num_sets)]
            for line_addr in survivors:
                ways = new_lists[line_addr % new_num_sets]
                if len(ways) >= associativity:
                    lost += 1
                    continue
                ways.append(line_addr)
            self._sets = new_lists
        self._resident = len(survivors) - lost
        self.stats.invalidations += lost
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(sets={self.num_sets}, ways={self.associativity}, "
            f"resident={self.resident_lines}/{self.capacity_lines})"
        )


class ReferenceSetAssociativeCache:
    """The original per-access, list-based cache model.

    Kept as the obviously-correct reference implementation for
    differential testing of :class:`SetAssociativeCache` (and, via
    ``REPRO_SIM_KERNEL=reference``, of the whole batched simulation
    path). It exposes the same interface — including the read-only
    :meth:`probe` contract and :meth:`access_run` — but every operation
    is the original list-scan code path.
    """

    __slots__ = ("num_sets", "associativity", "_sets", "_policy", "_lru", "stats")

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        policy: ReplacementPolicy | None = None,
    ):
        if num_sets < 1:
            raise ConfigurationError(f"num_sets {num_sets} must be >= 1")
        if associativity < 1:
            raise ConfigurationError(f"associativity {associativity} must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self._policy = policy
        self._lru = policy is None or isinstance(policy, LRUPolicy)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.associativity

    @property
    def resident_lines(self) -> int:
        """Lines currently resident (the original O(num_sets) recount)."""
        return sum(len(ways) for ways in self._sets)

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % self.num_sets]

    def resident_addresses(self) -> list[int]:
        resident: list[int] = []
        for ways in self._sets:
            resident.extend(ways)
        return resident

    # ------------------------------------------------------------------
    def access(self, line_addr: int) -> bool:
        ways = self._sets[line_addr % self.num_sets]
        if self._lru:
            # Original fast path: membership scan over <= associativity entries.
            try:
                ways.remove(line_addr)
            except ValueError:
                self.stats.misses += 1
                if len(ways) >= self.associativity:
                    ways.pop(0)
                    self.stats.evictions += 1
                ways.append(line_addr)
                return False
            ways.append(line_addr)
            self.stats.hits += 1
            return True

        assert self._policy is not None
        try:
            index = ways.index(line_addr)
        except ValueError:
            self.stats.misses += 1
            if len(ways) >= self.associativity:
                victim = self._policy.victim_index(ways)
                ways.pop(victim)
                self.stats.evictions += 1
            ways.append(line_addr)
            return False
        self._policy.on_hit(ways, index)
        self.stats.hits += 1
        return True

    def access_run(self, addrs: np.ndarray) -> tuple[np.ndarray, int]:
        """Per-access loop with the batched-call signature."""
        before = self.stats.evictions
        hits = np.array([self.access(int(a)) for a in addrs], dtype=bool)
        return hits, self.stats.evictions - before

    def snapshot_for(self, addrs: np.ndarray) -> tuple:
        """Copy-on-write snapshot covering the sets ``addrs`` map to."""
        sets = self._sets
        saved = {
            index: list(sets[index])
            for index in set((addrs % self.num_sets).tolist())
        }
        stats = self.stats
        return (
            saved,
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.invalidations,
        )

    def restore_snapshot(self, snapshot: tuple) -> None:
        """Undo every state change made since the matching snapshot."""
        saved, hits, misses, evictions, invalidations = snapshot
        sets = self._sets
        for index, ways in saved.items():
            sets[index] = ways
        stats = self.stats
        stats.hits = hits
        stats.misses = misses
        stats.evictions = evictions
        stats.invalidations = invalidations

    def probe(self, line_addr: int, touch: bool = False) -> bool:
        ways = self._sets[line_addr % self.num_sets]
        try:
            index = ways.index(line_addr)
        except ValueError:
            return False
        if touch:
            if self._lru:
                ways.pop(index)
                ways.append(line_addr)
            else:
                assert self._policy is not None
                self._policy.on_hit(ways, index)
        return True

    def invalidate(self, line_addr: int) -> bool:
        ways = self._sets[line_addr % self.num_sets]
        try:
            ways.remove(line_addr)
        except ValueError:
            return False
        self.stats.invalidations += 1
        return True

    def invalidate_all(self) -> int:
        dropped = self.resident_lines
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    def resize_sets(self, new_num_sets: int) -> int:
        if new_num_sets < 1:
            raise ConfigurationError(f"num_sets {new_num_sets} must be >= 1")
        if new_num_sets == self.num_sets:
            return 0
        survivors: list[int] = []
        max_depth = max((len(w) for w in self._sets), default=0)
        for depth in range(max_depth):
            for ways in self._sets:
                if depth < len(ways):
                    survivors.append(ways[depth])
        lost = 0
        self.num_sets = new_num_sets
        self._sets = [[] for _ in range(new_num_sets)]
        for line_addr in survivors:
            ways = self._sets[line_addr % new_num_sets]
            if len(ways) >= self.associativity:
                lost += 1
                continue
            ways.append(line_addr)
        self.stats.invalidations += lost
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReferenceSetAssociativeCache(sets={self.num_sets}, "
            f"ways={self.associativity}, "
            f"resident={self.resident_lines}/{self.capacity_lines})"
        )
