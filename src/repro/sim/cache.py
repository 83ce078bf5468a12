"""Set-associative cache models.

The basic building block of the memory hierarchy: a tag-only
set-associative cache. Addresses are *line* addresses — the byte-offset
within a line never matters to this model.

Two implementations live here:

* :class:`SetAssociativeCache` — the production LRU kernel. The state
  is one ``int64`` array per cache, each set's fill count and its lines
  in LRU → MRU order; one compiled routine
  (``_lru.c``, loaded by :mod:`repro.sim.native`) steps it for whole
  runs (:meth:`SetAssociativeCache.access_run`, the entry point of the
  L1, monitor and LLC service traces and of the live LLC walk) and for
  scalar accesses, probes and invalidations. Snapshots copy the whole
  state (at most a few thousand lines).
* :class:`ReferenceSetAssociativeCache` — the original per-access,
  list-based model, retained verbatim as the reference implementation
  for differential testing (``REPRO_SIM_KERNEL=reference`` selects it
  everywhere; see :mod:`repro.sim.kernelmode`). It also serves every
  non-LRU replacement policy, and stands in for the compiled kernel
  where that cannot be built.

Resizing support: partitions change their number of sets at runtime
(set partitioning, Section 8). ``resize_sets`` re-hashes surviving lines
into the new geometry, preserving per-set recency order and evicting
overflow — modeling a partition reconfiguration in which lines whose
set index is unchanged survive. Both implementations produce
bit-identical resize outcomes (the interleaved-LRU rehash order is part
of the model's contract and is pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.native import lru_kernel
from repro.sim.replacement import LRUPolicy, ReplacementPolicy

#: The tag of a free slot (no line address is this negative).
EMPTY = np.iinfo(np.int64).min


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
    """A tag-only set-associative LRU cache stepped by the compiled walk.

    The state is one ``int64`` array ``[sets, 1 + ways]``: column 0 is
    each set's fill count, the other columns its resident lines in
    LRU → MRU order, with :data:`EMPTY` in the free slots. One C routine
    (:mod:`repro.sim.native`) steps it access by access with the
    reference model's list semantics, so every operation here — a run,
    a scalar access, a probe, an invalidation — leaves the exact LRU
    order and counters :class:`ReferenceSetAssociativeCache` would.
    Built through :func:`repro.sim.kernelmode.make_cache`, which falls
    back to the reference model for other replacement policies and when
    the compiled walk is unavailable; constructing this class directly
    raises then.

    Parameters
    ----------
    num_sets:
        Number of sets (any positive integer; non-power-of-two values are
        supported because 3 MB / 6 MB partitions produce them).
    associativity:
        Ways per set.
    """

    __slots__ = (
        "num_sets",
        "associativity",
        "_state",
        "_view",
        "_resident",
        "_kernel",
        "stats",
    )

    def __init__(self, num_sets: int, associativity: int):
        if num_sets < 1:
            raise ConfigurationError(f"num_sets {num_sets} must be >= 1")
        if associativity < 1:
            raise ConfigurationError(f"associativity {associativity} must be >= 1")
        kernel = lru_kernel()
        if kernel is None:
            raise SimulationError(
                "the compiled LRU walk is unavailable; build caches with "
                "repro.sim.kernelmode.make_cache to fall back to the "
                "reference model"
            )
        self._kernel = kernel
        self.associativity = associativity
        state = np.full((num_sets, 1 + associativity), EMPTY, dtype=np.int64)
        state[:, 0] = 0
        self._set_state(state)
        self._resident = 0
        self.stats = CacheStats()

    def _set_state(self, state: np.ndarray) -> None:
        self._state = state
        # The kernel reads a memoryview's buffer faster than an array's.
        self._view = memoryview(state)
        self.num_sets = int(state.shape[0])

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
        return self._kernel.find(self._view, line_addr, 0)

    def _lines(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``[sets, ways]`` tags and the mask of their occupied slots."""
        state = self._state
        return state[:, 1:], np.arange(self.associativity) < state[:, :1]

    def resident_addresses(self) -> list[int]:
        """All resident line addresses (LRU-first within each set)."""
        tags, occupied = self._lines()
        return tags[occupied].tolist()

    def state(self) -> bytes:
        """The full LRU state: equal exactly when every set's order is."""
        return self._state.tobytes()

    # ------------------------------------------------------------------
    def access(self, line_addr: int) -> bool:
        """Access a line; returns ``True`` on hit.

        On a miss the line is installed, evicting the set's LRU line if
        the set is full.
        """
        outcome = self._kernel.access(self._view, line_addr)
        stats = self.stats
        if outcome > 0:
            stats.hits += 1
            return True
        stats.misses += 1
        if outcome:
            stats.evictions += 1
        else:
            self._resident += 1
        return False

    def access_run(self, addrs: np.ndarray) -> tuple[np.ndarray, int]:
        """Resolve a run of line addresses in one call.

        Returns ``(hits, evictions)``: a boolean hit/miss vector aligned
        with ``addrs`` and the number of evictions the run caused. The
        cache state and counters afterwards are exactly as if each
        address had been passed to :meth:`access` in order.
        """
        if addrs.dtype != np.int32 and addrs.dtype != np.int64:
            addrs = addrs.astype(np.int64)
        hits = np.empty(addrs.shape[0], dtype=bool)
        misses, evictions = self._kernel.run(
            self._view, np.ascontiguousarray(addrs), hits
        )
        self._resident += misses - evictions
        stats = self.stats
        stats.hits += hits.shape[0] - misses
        stats.misses += misses
        stats.evictions += evictions
        return hits, evictions

    def snapshot(self) -> tuple:
        """A copy of the whole state: LRU array, counters, resident count."""
        stats = self.stats
        return (
            self._state.copy(),
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.invalidations,
            self._resident,
        )

    def restore(self, snapshot: tuple) -> None:
        """Return to the state of a :meth:`snapshot` (any number of times)."""
        state, hits, misses, evictions, invalidations, resident = snapshot
        self._set_state(state.copy())
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
        return self._kernel.find(self._view, line_addr, 1 if touch else 0)

    def invalidate(self, line_addr: int) -> bool:
        """Remove one line if resident; returns whether it was."""
        if not self._kernel.find(self._view, line_addr, 2):
            return False
        self._resident -= 1
        self.stats.invalidations += 1
        return True

    def invalidate_all(self) -> int:
        """Flush the cache; returns the number of lines dropped."""
        dropped = self._resident
        self._state[:, 1:] = EMPTY
        self._state[:, 0] = 0
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
        # Interleave sets preserving intra-set LRU order: the i-th
        # least-recent line of every set in rounds, oldest round first
        # (a column-major read of the occupied slots).
        tags, occupied = self._lines()
        survivors = tags.T[occupied.T]
        # Each new set keeps the first ``ways`` survivors mapping to it,
        # in survivor order; the rest overflow.
        targets = survivors % new_num_sets
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        rank = np.arange(targets.shape[0]) - np.searchsorted(targets, targets)
        kept = rank < self.associativity
        state = np.full((new_num_sets, 1 + self.associativity), EMPTY, dtype=np.int64)
        state[targets[kept], 1 + rank[kept]] = survivors[order][kept]
        state[:, 0] = np.bincount(targets[kept], minlength=new_num_sets)
        self._set_state(state)
        lost = int(targets.shape[0] - np.count_nonzero(kept))
        self._resident = int(targets.shape[0]) - lost
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
    :meth:`probe` contract, :meth:`access_run` and whole-state
    :meth:`snapshot`/:meth:`restore` — but every operation is the
    original list-scan code path. It is also the only model of a
    pluggable (non-LRU) replacement policy.
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

    def state(self) -> tuple:
        """The full replacement state: every set's lines, in list order."""
        return tuple(tuple(ways) for ways in self._sets)

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

    def snapshot(self) -> tuple:
        """A copy of the whole state: every set's lines and the counters."""
        stats = self.stats
        return (
            [list(ways) for ways in self._sets],
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.invalidations,
        )

    def restore(self, snapshot: tuple) -> None:
        """Return to the state of a :meth:`snapshot` (any number of times)."""
        sets, hits, misses, evictions, invalidations = snapshot
        self._sets = [list(ways) for ways in sets]
        self.num_sets = len(sets)
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
