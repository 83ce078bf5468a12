"""Reuse-distance tracking for the utility monitor.

The UMON-style monitor (Section 7) must know, for each candidate
partition size, how many recent accesses *would have hit* in a partition
of that size. For an LRU-managed cache this is classical Mattson stack
analysis: an access hits in a cache of capacity ``C`` lines exactly when
its *reuse distance* — the number of distinct lines touched since the
previous access to the same line — is smaller than ``C``. One pass over
the access stream therefore yields hit counts for *all* candidate sizes
simultaneously, which is exactly the property UMON's single shadow-tag
array exploits in hardware.

:class:`ReuseDistanceTracker` computes reuse distances online in
O(log n) per access with a Fenwick tree over access timestamps holding
one marker at each line's last-access position.

:class:`StreamReuseWalk` is the same walk over one fixed address array
that is fed pass after pass (a :class:`repro.sim.hierarchy.MonitorTrace`
stream): its state is two ``int64`` arrays — the Fenwick tree, and the
last timestamp of each distinct line, indexed by a dense line id — and
the compiled ``reuse_walk`` entry point of ``repro.sim._lru`` steps it.
All-integer arithmetic, so its distances are exactly the tracker's;
without the compiled module it runs the tracker's own loop.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


class FenwickTree:
    """A binary indexed tree over a growable range of positions."""

    __slots__ = ("_tree", "_size")

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise SimulationError("Fenwick capacity must be >= 1")
        self._size = capacity
        self._tree = [0] * (capacity + 1)

    def _grow(self, needed: int) -> None:
        new_size = self._size
        while new_size < needed:
            new_size *= 2
        # Rebuild from per-position values (O(n log n), amortized by doubling).
        # A node's point value is its range sum minus its direct children's
        # range sums (the children tile the rest of the node's range).
        tree = self._tree
        values = [0] * (self._size + 1)
        for i in range(1, self._size + 1):
            value = tree[i]
            child = i - 1
            stop = i - (i & -i)
            while child > stop:
                value -= tree[child]
                child -= child & -child
            values[i] = value
        new_tree = [0] * (new_size + 1)
        for i in range(1, self._size + 1):
            if values[i]:
                j = i
                while j <= new_size:
                    new_tree[j] += values[i]
                    j += j & -j
        self._tree = new_tree
        self._size = new_size

    def add(self, position: int, delta: int) -> None:
        """Add ``delta`` at a 1-based position."""
        if position < 1:
            raise SimulationError("Fenwick positions are 1-based")
        if position > self._size:
            self._grow(position)
        tree = self._tree
        while position <= self._size:
            tree[position] += delta
            position += position & -position

    def prefix_sum(self, position: int) -> int:
        """Sum of values at positions ``1..position``."""
        if position > self._size:
            position = self._size
        total = 0
        tree = self._tree
        while position > 0:
            total += tree[position]
            position -= position & -position
        return total

    def range_sum(self, low: int, high: int) -> int:
        """Sum of values at positions ``low..high`` inclusive."""
        if high < low:
            return 0
        return self.prefix_sum(high) - self.prefix_sum(low - 1)


#: Sentinel reuse distance for a first-touch (cold) access.
COLD_DISTANCE = -1


class ReuseDistanceTracker:
    """Online LRU reuse distances over a line-address stream."""

    __slots__ = ("_fenwick", "_last_position", "_clock")

    def __init__(self):
        self._fenwick = FenwickTree()
        self._last_position: dict[int, int] = {}
        self._clock = 0

    @property
    def distinct_lines(self) -> int:
        """Number of distinct lines observed so far."""
        return len(self._last_position)

    def observe(self, line_addr: int) -> int:
        """Record one access; returns its reuse distance.

        Returns :data:`COLD_DISTANCE` for the first access to a line.
        The reuse distance is the number of *distinct other* lines
        accessed since the previous access to ``line_addr``; the access
        hits in an LRU cache of capacity ``C`` iff ``0 <= distance < C``.
        """
        self._clock += 1
        now = self._clock
        previous = self._last_position.get(line_addr)
        if previous is None:
            distance = COLD_DISTANCE
        else:
            distance = self._fenwick.range_sum(previous + 1, now - 1)
            self._fenwick.add(previous, -1)
        self._fenwick.add(now, 1)
        self._last_position[line_addr] = now
        return distance

    def observe_run(self, line_addrs: list[int]) -> list[int]:
        """Record a run of accesses; returns their reuse distances.

        All-integer arithmetic, so the distances and the final tree state
        are exactly those of per-address :meth:`observe` calls; the tree
        is pre-grown to the run's last timestamp and the Fenwick walks
        are inlined over local references, which is what makes this the
        batched monitor's hot path.
        """
        fenwick = self._fenwick
        clock = self._clock
        if clock + len(line_addrs) > fenwick._size:
            fenwick._grow(clock + len(line_addrs))
        tree = fenwick._tree
        size = fenwick._size
        last_position = self._last_position
        get_previous = last_position.get
        distances: list[int] = []
        append = distances.append
        for line_addr in line_addrs:
            clock += 1
            previous = get_previous(line_addr)
            if previous is None:
                append(COLD_DISTANCE)
            else:
                # range_sum(previous + 1, clock - 1) as two prefix walks.
                total = 0
                position = clock - 1
                while position > 0:
                    total += tree[position]
                    position -= position & -position
                position = previous
                while position > 0:
                    total -= tree[position]
                    position -= position & -position
                append(total)
                position = previous
                while position <= size:
                    tree[position] -= 1
                    position += position & -position
            position = clock
            while position <= size:
                tree[position] += 1
                position += position & -position
            last_position[line_addr] = clock
        self._clock = clock
        return distances

    def reset(self) -> None:
        """Forget all history (used when a monitor is cleared)."""
        self._fenwick = FenwickTree()
        self._last_position.clear()
        self._clock = 0

    def recency_order(self) -> bytes:
        """The observed lines, least to most recently used, as int64 bytes.

        The order alone decides every future reuse distance, so two
        trackers with equal orders return equal distances from then on.
        """
        last = self._last_position
        return np.array(sorted(last, key=last.__getitem__), dtype=np.int64).tobytes()


class StreamReuseWalk:
    """Reuse distances at chosen positions of one fixed address array.

    ``observe_at(fed)`` is :meth:`ReuseDistanceTracker.observe_run` over
    ``addrs[fed]``, with no per-address Python: the distinct addresses
    get dense ids once (one ``np.unique``), and ``kernel.reuse_walk``
    (the compiled ``repro.sim._lru``) steps the array state over
    ``ids[fed]`` in place. ``kernel=None`` keeps a
    :class:`ReuseDistanceTracker` and runs its loop instead, with the
    same distances and the same :meth:`recency_order`.
    """

    __slots__ = ("_kernel", "_addrs", "_unique", "_ids", "_tree", "_last",
                 "_clock", "_tracker")

    def __init__(self, kernel, addrs: np.ndarray):
        self._kernel = kernel
        self._tracker: ReuseDistanceTracker | None = None
        if kernel is None:
            self._addrs = addrs
            self._tracker = ReuseDistanceTracker()
            return
        self._unique, ids = np.unique(addrs, return_inverse=True)
        self._ids = ids.reshape(-1).astype(np.int64, copy=False)
        #: Fenwick tree over timestamps 1..size (``_tree[0]`` unused).
        self._tree = np.zeros(1024 + 1, dtype=np.int64)
        #: Last timestamp of each line id; 0 for a line not yet seen.
        self._last = np.zeros(self._unique.shape[0], dtype=np.int64)
        self._clock = 0

    def observe_at(self, fed: np.ndarray) -> np.ndarray:
        """Record the accesses at positions ``fed``; their distances (int64)."""
        if self._tracker is not None:
            return np.array(
                self._tracker.observe_run(self._addrs[fed].tolist()), dtype=np.int64
            )
        fed = fed.astype(np.int64, copy=False)
        if self._clock + fed.shape[0] >= self._tree.shape[0]:
            self._grow(self._clock + int(fed.shape[0]))
        distances = np.empty(fed.shape[0], dtype=np.int64)
        self._clock = self._kernel.reuse_walk(
            self._tree, self._last, self._ids, fed, self._clock, distances
        )
        return distances

    def recency_order(self) -> bytes:
        """As :meth:`ReuseDistanceTracker.recency_order`."""
        if self._tracker is not None:
            return self._tracker.recency_order()
        seen = np.flatnonzero(self._last)
        order = seen[np.argsort(self._last[seen])]
        return self._unique[order].astype(np.int64).tobytes()

    def _grow(self, needed: int) -> None:
        """Double the tree past ``needed``, rebuilt from the last timestamps.

        Each seen line has one marker at its last timestamp, so node
        ``i`` of the new tree, which sums positions ``(i - lowbit(i), i]``,
        is a difference of two prefix counts of the markers.
        """
        size = self._tree.shape[0] - 1
        while size < needed:
            size *= 2
        markers = np.zeros(size + 1, dtype=np.int64)
        markers[self._last[self._last > 0]] = 1
        counts = np.cumsum(markers)
        node = np.arange(size + 1, dtype=np.int64)
        self._tree = counts - counts[node - (node & -node)]
