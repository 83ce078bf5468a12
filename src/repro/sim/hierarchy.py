"""Per-domain memory hierarchy: private L1 -> LLC view -> DRAM.

Each access walks the hierarchy and returns the round-trip latency of the
level that served it. The domain's utilization monitor is fed the
L1-filtered access stream (the paper's UMON-style hardware table filters
out "memory accesses that would hit in the private caches", Section 7) —
but the *filter itself* depends on who is asking:

* When the hierarchy respects annotations (Principle 1, Untangle-style
  schemes), the monitor's L1 filter is a private shadow tag directory
  warmed only by the monitored (public) accesses. The live L1 holds
  secret lines too — the data really moves — so filtering by live-L1
  misses would let a secret-warmed L1 decide which *public* accesses the
  monitor sees, making the metric a function of the secret (exactly the
  Edge 1 leak Principle 1 exists to close). The shadow filter's "would
  this hit in the private cache" answer is a pure function of the public
  access sequence, so the monitor window contents are too.
* When annotations are not respected (conventional schemes, the Time
  baseline), the monitor observes live-L1-missing accesses including
  secret ones — the secret-dependent metric that motivates the paper.

Two paths resolve accesses. :meth:`DomainMemory.access` resolves one
access against the live L1 (the reference kernel's path, and the path of
jittered cores and way-partitioned LLCs). The batched kernel instead
pairs :meth:`DomainMemory.resolve_block` with
:meth:`DomainMemory.commit_block`: a run is resolved *speculatively* —
the LLC advanced, monitor and service counters deferred — so the kernel
can learn every access's actual latency first, compute exactly where
the reference scalar loop would have stopped (a cycle budget,
typically), and then commit only that prefix, rolling the LLC back over
the unexecuted tail via lazily journaled set snapshots.

The batched path reads its L1 decisions from an :class:`L1ServiceTrace`
instead of walking the live L1. That is exact: within a run, the L1
state depends only on the address sequence, the monitor only on its
filtered subsequence, and the LLC only on the L1-missing subsequence —
none feeds back into another — and a rolled-back replay is
deterministic from the restored state. The shadow monitor filter
advances only at commit time (it never influences latencies), so
speculation needs no filter snapshots.
"""

from __future__ import annotations

import enum
from typing import Protocol

import numpy as np

from repro.config import ArchConfig
from repro.errors import SimulationError
from repro.sim.kernelmode import make_cache
from repro.sim.partition import LLCView


#: Sentinel distinct from the packed-recency dicts' stored value (None),
#: so ``ways.pop(addr, MISSING) is None`` is a one-lookup hit test.
MISSING = object()

#: Minimum positions an :class:`L1ServiceTrace` walk extends by at once
#: (a multiple of 8, so every walk starts on a byte boundary): resolves
#: request a few hundred positions at a time, and thousands of tiny
#: ``access_run`` calls would be overhead-bound. :meth:`L1ServiceTrace.warm`
#: also walks one block past the stream period so cores that consume a
#: little more than one full pass (the common case) never extend at all.
_TRACE_EXTEND_BLOCK = 8192


class L1ServiceTrace:
    """Precomputed L1 hit/miss decisions for one workload stream.

    The private L1 is unaffected by the LLC, the monitor, and the other
    domains: its hit/miss pattern over a stream is a pure function of
    the address sequence alone (see the module docstring's feedback
    argument). That makes the pattern *shareable* — every cell that
    simulates the same stream (all partition sizes of one benchmark,
    every scheme of one mix), and every speculative replay within one
    cell, can be served from a single walk of the L1 instead of each
    re-walking it with journaling and rollback.

    The trace walks the stream's memory-access sequence lazily and
    cyclically (streams wrap for pressure maintenance) through
    :meth:`~repro.sim.cache.SetAssociativeCache.access_run` on a
    private replica built by the same :func:`~repro.sim.kernelmode.make_cache`
    the live hierarchy uses — so the recorded decisions are bit-identical
    to the decisions the core's own L1 would have made. Decisions are
    stored one bit per position in an append-only ``bytearray``, and the
    trace keeps its own copy of the memory-access addresses — int32 when
    they fit — instead of the whole stream, so a memoized trace costs
    about 4 bytes per memory access plus a bit per walked position.
    """

    __slots__ = ("geometry", "_stream", "_addrs", "_period", "_cache",
                 "_bits", "_walked")

    def __init__(self, stream, config: ArchConfig):
        l1_sets = max(1, config.l1_lines // config.l1_associativity)
        self.geometry = (l1_sets, config.l1_associativity)
        self._stream = stream  # copied from on the first walk
        self._addrs: np.ndarray | None = None
        self._period = int(stream.mem_positions.shape[0])
        self._cache = None
        self._bits = bytearray()
        self._walked = 0

    def warm(self) -> None:
        """Eagerly walk one full pass of the stream.

        Campaign engines call this in the parent process before forking
        workers: the walked bits are inherited copy-on-write, so each
        worker only extends the trace past the first pass instead of
        replaying it from zero.
        """
        target = self._period + _TRACE_EXTEND_BLOCK
        if self._period and self._walked < target:
            self._extend(target)

    @property
    def walked(self) -> int:
        """Positions walked so far (every lookup below this is free)."""
        return self._walked

    def hit(self, pos: int) -> int:
        """1 if absolute access position ``pos`` hits in the L1, else 0."""
        if pos >= self._walked:
            self._extend(pos + 1)
        return (self._bits[pos >> 3] >> (pos & 7)) & 1

    def hits(self, start: int, stop: int) -> np.ndarray:
        """Hit/miss booleans for absolute access positions [start, stop)."""
        if stop <= start:
            return np.zeros(0, dtype=bool)
        if stop > self._walked:
            self._extend(stop)
        first = start >> 3
        packed = np.frombuffer(
            self._bits, dtype=np.uint8, count=((stop + 7) >> 3) - first,
            offset=first,
        )
        offset = start & 7
        unpacked = np.unpackbits(packed, bitorder="little")
        return unpacked[offset : offset + stop - start].view(bool)

    def _extend(self, target: int) -> None:
        if self._period == 0:
            raise ValueError("cannot trace a stream with no memory accesses")
        # Walk well past the request (bounded overshoot of one block),
        # and to a whole byte so the next walk starts byte-aligned.
        target = max(target, self._walked + _TRACE_EXTEND_BLOCK)
        target = (target + 7) & ~7
        if self._addrs is None:
            addrs = self._stream.addresses[self._stream.mem_positions]
            if addrs.max() <= np.iinfo(np.int32).max:
                addrs = addrs.astype(np.int32)
            self._addrs = addrs
            self._stream = None
            self._cache = make_cache(*self.geometry)
        segments = []
        walked = self._walked
        while walked < target:
            offset = walked % self._period
            n = min(self._period - offset, target - walked)
            segment, _ = self._cache.access_run(self._addrs[offset : offset + n])
            segments.append(segment)
            walked += n
        self._bits += np.packbits(
            np.concatenate(segments), bitorder="little"
        ).tobytes()
        self._walked = walked


class MemoryLevel(enum.IntEnum):
    """The level of the hierarchy that served an access."""

    L1 = 1
    LLC = 2
    DRAM = 3


class MonitorSink(Protocol):
    """Destination for monitored (L1-filtered) memory accesses."""

    def observe(self, line_addr: int) -> None:
        """Record one public post-L1 access."""
        ...


class DomainMemory:
    """One domain's private L1 plus its LLC view.

    Parameters
    ----------
    config:
        Machine parameters (latencies, L1 geometry).
    llc_view:
        This domain's LLC access object (partitioned or shared).
    monitor:
        Optional utilization-monitor sink fed with L1-filtered accesses.
    monitor_respects_annotations:
        When ``True`` (Untangle), secret-annotated accesses never reach
        the monitor, and the monitor's L1 filter is a private shadow tag
        directory warmed only by public accesses — a pure function of
        the public access sequence (Principle 1; see the module
        docstring). When ``False`` (conventional schemes), every
        live-L1-missing access is monitored — which is what makes their
        metric secret-dependent.
    """

    __slots__ = (
        "l1",
        "llc_view",
        "monitor",
        "monitor_respects_annotations",
        "_monitor_filter",
        "_l1_latency",
        "_llc_latency",
        "_dram_latency",
        "level_counts",
        "_l1_trace",
        "_l1_trace_pos",
    )

    def __init__(
        self,
        config: ArchConfig,
        llc_view: LLCView,
        monitor: MonitorSink | None = None,
        monitor_respects_annotations: bool = True,
    ):
        l1_sets = max(1, config.l1_lines // config.l1_associativity)
        self.l1 = make_cache(l1_sets, config.l1_associativity)
        self.llc_view = llc_view
        self.monitor = monitor
        self.monitor_respects_annotations = monitor_respects_annotations
        # The shadow tag directory filtering the monitored stream (same
        # geometry as the L1 it models). Only at commit time, never
        # speculatively — see resolve/commit.
        self._monitor_filter = (
            make_cache(l1_sets, config.l1_associativity)
            if monitor is not None and monitor_respects_annotations
            else None
        )
        self._l1_latency = config.l1_latency
        self._llc_latency = config.llc_latency
        self._dram_latency = config.dram_latency
        self.level_counts = {level: 0 for level in MemoryLevel}
        self._l1_trace: L1ServiceTrace | None = None
        self._l1_trace_pos = 0

    @property
    def l1_trace(self) -> L1ServiceTrace | None:
        """The installed L1 service trace (``None`` on the scalar path)."""
        return self._l1_trace

    def install_l1_trace(self, trace: L1ServiceTrace) -> None:
        """Serve L1 decisions from a (possibly shared) service trace.

        Afterwards the live ``l1`` cache object is never walked: resolves
        slice the trace at this domain's committed stream position and
        only the L1-missing subsequence pays a per-access LLC walk. The
        caller must install the trace *before* the first access (a
        later install replaces an unused one), the trace must cover
        exactly this domain's memory-access sequence in order, and
        resolves must alternate strictly with commits (the batched
        kernel's discipline) — the trace position advances only at
        commit, which is what makes speculative rollback free on the L1
        side. ``l1.stats`` keeps hit/miss counts for served accesses;
        eviction counts are not modeled on the traced path (no consumer
        reads them).
        """
        if trace.geometry != (self.l1.num_sets, self.l1.associativity):
            raise ValueError(
                f"trace geometry {trace.geometry} does not match the L1 "
                f"({self.l1.num_sets} sets x {self.l1.associativity} ways)"
            )
        self._l1_trace = trace
        self._l1_trace_pos = 0

    @property
    def monitor_wants_hashes(self) -> bool:
        """Whether precomputed address hashes would help the monitor.

        True when the monitor set-samples by SplitMix64 address hash
        (see :class:`repro.monitor.umon.UMONMonitor`); callers that hold
        a per-stream hash cache can then pass it to
        :meth:`commit_block` and skip re-hashing per observation.
        """
        return self.monitor is not None and bool(
            getattr(self.monitor, "uses_address_hashes", False)
        )

    def access(self, line_addr: int, metric_excluded: bool = False) -> int:
        """Perform one memory access; returns its round-trip latency.

        ``metric_excluded`` marks secret-annotated accesses: they traverse
        the caches normally (the data still moves!) but are hidden from
        the monitor when annotations are respected — and excluded from
        its shadow filter, so they cannot even shift which public
        accesses the monitor sees. With a trace installed the L1
        decision is the trace's next position (the batched kernel's
        scalar mop-up); without one the live L1 is walked.
        """
        filter_cache = self._monitor_filter
        if filter_cache is not None and not metric_excluded:
            if not filter_cache.access(line_addr):
                self.monitor.observe(line_addr)
        trace = self._l1_trace
        if trace is not None:
            pos = self._l1_trace_pos
            self._l1_trace_pos = pos + 1
            stats = self.l1.stats
            if trace.hit(pos):
                stats.hits += 1
                self.level_counts[MemoryLevel.L1] += 1
                return self._l1_latency
            stats.misses += 1
        elif self.l1.access(line_addr):
            self.level_counts[MemoryLevel.L1] += 1
            return self._l1_latency
        if (
            filter_cache is None
            and self.monitor is not None
            and (not self.monitor_respects_annotations or not metric_excluded)
        ):
            self.monitor.observe(line_addr)
        if self.llc_view.access(line_addr):
            self.level_counts[MemoryLevel.LLC] += 1
            return self._llc_latency
        self.level_counts[MemoryLevel.DRAM] += 1
        return self._dram_latency

    @property
    def supports_speculation(self) -> bool:
        """Whether the LLC view can snapshot/restore for speculative runs."""
        return bool(getattr(self.llc_view, "supports_speculation", False))

    @property
    def worst_case_latency(self) -> int:
        """Upper bound on any single access's latency (a DRAM miss)."""
        return self._dram_latency

    def resolve_block(
        self, addrs: np.ndarray, speculative: bool = True
    ) -> tuple[np.ndarray, tuple]:
        """Speculatively resolve a run's latencies; the LLC advances, nothing else.

        L1 decisions are a slice of the installed trace at this
        domain's committed position — no dict walk, no journal, and
        rollback is free (the position only advances at commit). Only
        the L1-missing subsequence walks the LLC, through one lazily
        journaled loop over the view's raw packed-recency dicts
        (:meth:`_llc_walk`). The returned int64 latencies are the
        *actual* per-access values; the monitor and the service
        counters are untouched until :meth:`commit_block` applies them
        for the prefix that really executed. With ``speculative=True``
        the touched LLC sets are journaled so a partial commit can roll
        the tail back.
        """
        trace = self._l1_trace
        if trace is None:
            raise SimulationError(
                "resolve_block needs an installed L1 service trace "
                "(see install_l1_trace)"
            )
        n = int(addrs.shape[0])
        pos = self._l1_trace_pos
        miss_mask = ~trace.hits(pos, pos + n)
        miss_addrs = addrs[miss_mask]
        latencies = np.full(n, self._l1_latency, dtype=np.int64)
        if miss_addrs.shape[0]:
            llc_snapshot, llc_hits = self._llc_walk(miss_addrs, speculative)
            latencies[miss_mask] = np.where(
                llc_hits, self._llc_latency, self._dram_latency
            )
        else:
            llc_snapshot = None
            llc_hits = miss_addrs.astype(bool)
        token = (addrs, miss_mask, llc_hits, speculative, llc_snapshot)
        return latencies, token

    def _llc_walk(
        self, addrs: np.ndarray, speculative: bool
    ) -> tuple[tuple | None, np.ndarray]:
        """One-loop LLC walk over the view's raw packed-recency dicts.

        Semantically identical to ``snapshot_for`` + ``access_run`` on
        the view (same dict operations in the same order, stats applied
        in bulk), but the snapshot is journaled lazily as sets are first
        touched instead of in an eager pre-pass. Returns the snapshot in
        the exact layout the view's ``restore_snapshot`` expects (a
        shared view carries its per-domain counters alongside the cache
        snapshot), plus the per-access hit vector.
        """
        cache, offset, domain_stats = self.llc_view.kernel_binding()
        if speculative:
            journal: dict | None = {}
            stats = cache.stats
            cache_snapshot = (
                journal,
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.invalidations,
                cache._resident,
            )
            if domain_stats is None:
                snapshot: tuple | None = cache_snapshot
            else:
                snapshot = (
                    cache_snapshot,
                    domain_stats.hits,
                    domain_stats.misses,
                )
        else:
            journal = None
            snapshot = None
        sets = cache._sets
        num_sets = cache.num_sets
        assoc = cache.associativity
        tagged = addrs + offset if offset else addrs
        indexes = tagged % num_sets
        hit = miss = evict = 0
        out: list[bool] = []
        append = out.append
        # Resident lines map to None, so pop's MISSING default doubles
        # as the miss test while removing a hit's stale recency slot.
        for addr, index in zip(tagged.tolist(), indexes.tolist()):
            ways = sets[index]
            if journal is not None and index not in journal:
                journal[index] = dict(ways)
            if ways.pop(addr, MISSING) is None:
                ways[addr] = None
                hit += 1
                append(True)
            else:
                if len(ways) >= assoc:
                    del ways[next(iter(ways))]
                    evict += 1
                ways[addr] = None
                miss += 1
                append(False)
        stats = cache.stats
        stats.hits += hit
        stats.misses += miss
        stats.evictions += evict
        cache._resident += miss - evict
        if domain_stats is not None:
            domain_stats.hits += hit
            domain_stats.misses += miss
        return snapshot, np.array(out, dtype=bool)

    def _feed_monitor(
        self,
        addrs: np.ndarray,
        count: int,
        metric_excluded: np.ndarray | None,
        hashes: np.ndarray | None,
        miss_mask: np.ndarray,
    ) -> None:
        """Offer a committed prefix's accesses to the monitor.

        ``addrs``/``miss_mask`` cover exactly the committed prefix
        (length ``count``); ``metric_excluded``/``hashes`` are aligned
        with the original block and sliced here. With a shadow filter
        (annotations respected), the public subsequence is walked
        through the filter and its misses are observed — the L1's
        ``miss_mask`` plays no part, so secret lines resident in the
        real L1 cannot shift what the monitor sees. Without one, the
        legacy L1-missing feed applies.
        """
        monitor = self.monitor
        if monitor is None:
            return
        filter_cache = self._monitor_filter
        if filter_cache is not None:
            if metric_excluded is not None:
                public = ~metric_excluded[:count]
                public_addrs = addrs[public]
            else:
                public = None
                public_addrs = addrs
            if not public_addrs.shape[0]:
                return
            filter_hits, _ = filter_cache.access_run(public_addrs)
            keep = ~filter_hits
            monitored = public_addrs[keep]
            if not monitored.shape[0]:
                return
            if hashes is not None:
                kept_hashes = hashes[:count]
                if public is not None:
                    kept_hashes = kept_hashes[public]
                monitored_hashes = kept_hashes[keep]
            else:
                monitored_hashes = None
        else:
            if self.monitor_respects_annotations and metric_excluded is not None:
                keep = miss_mask & ~metric_excluded[:count]
            else:
                keep = miss_mask
            monitored = addrs[keep]
            if not monitored.shape[0]:
                return
            monitored_hashes = (
                hashes[:count][keep] if hashes is not None else None
            )
        observe_block = getattr(monitor, "observe_block", None)
        if observe_block is not None:
            observe_block(monitored, monitored_hashes)
        else:
            observe = monitor.observe
            for line_addr in monitored.tolist():
                observe(line_addr)

    def commit_block(
        self,
        token: tuple,
        count: int,
        metric_excluded: np.ndarray | None = None,
        hashes: np.ndarray | None = None,
    ) -> None:
        """Commit the first ``count`` accesses of a resolved block.

        Advancing the trace position by ``count`` *is* the L1 commit.
        When ``count`` covers the whole block this then just applies the
        deferred effects (service counters, monitor observations). A
        partial commit first restores the LLC snapshot and re-walks the
        kept prefix's misses for state (the walk is deterministic from
        the restored state, so its hit pattern equals the original
        resolve's prefix), so the final state is exactly as if only
        those accesses had happened. ``metric_excluded`` and ``hashes``
        are aligned with the block's address array.
        """
        addrs, miss_mask, llc_hits, speculative, llc_snapshot = token
        if count < int(addrs.shape[0]):
            if not speculative:
                raise ValueError("partial commit requires a speculative resolve")
            miss_mask = miss_mask[:count]
            kept_misses = int(np.count_nonzero(miss_mask))
            if llc_snapshot is not None:
                self.llc_view.restore_snapshot(llc_snapshot)
                if kept_misses:
                    self._llc_walk(addrs[:count][miss_mask], False)
            llc_hits = llc_hits[:kept_misses]
            addrs = addrs[:count]
        if not count:
            return
        self._l1_trace_pos += count
        num_misses = int(np.count_nonzero(miss_mask))
        counts = self.level_counts
        counts[MemoryLevel.L1] += count - num_misses
        num_llc = int(np.count_nonzero(llc_hits))
        counts[MemoryLevel.LLC] += num_llc
        counts[MemoryLevel.DRAM] += num_misses - num_llc
        stats = self.l1.stats
        stats.hits += count - num_misses
        stats.misses += num_misses
        self._feed_monitor(addrs, count, metric_excluded, hashes, miss_mask)

    def access_block(
        self,
        addrs: np.ndarray,
        metric_excluded: np.ndarray | None = None,
        hashes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Resolve and commit a run of memory accesses in one call.

        Returns the per-access round-trip latencies as an int64 array.
        ``metric_excluded`` (aligned boolean array) carries the secret
        annotations; ``hashes`` optionally carries precomputed SplitMix64
        address hashes for a set-sampling monitor. Needs an installed
        trace, like :meth:`resolve_block`. State and counters afterwards
        are exactly as if :meth:`access` had been called once per
        address in order.
        """
        latencies, token = self.resolve_block(addrs, speculative=False)
        self.commit_block(token, int(addrs.shape[0]), metric_excluded, hashes)
        return latencies

    def reset_level_counts(self) -> None:
        """Zero the per-level service counters (used at warmup end)."""
        for level in MemoryLevel:
            self.level_counts[level] = 0
