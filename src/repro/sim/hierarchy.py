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

Two paths resolve accesses. :meth:`DomainMemory.access` without traces
resolves one access against the live L1 and feeds the monitor through
the live L1 or the shadow filter (the reference kernel's path, and the
path of jittered cores and way-partitioned LLCs). The batched kernel
instead resolves a run of accesses ahead with
:meth:`DomainMemory.resolve_levels` and commits it slice by slice, as
the accesses actually execute, with :meth:`DomainMemory.commit_levels`.
A resolve over a live LLC view snapshots the view's whole state (at
most a few thousand lines) and walks it ahead in one compiled run;
:meth:`DomainMemory.settle` later rolls the uncommitted
tail back and re-walks the committed prefix's misses, so the LLC ends
exactly as if only the committed accesses had happened. A private
partition settles only when it must: before its LLC resizes it, before
the next resolve and before a scalar access. A shared view settles at
the end of every ``Core.run`` call, since other domains touch its sets
in between. A memory whose LLC partition is private and never resized
walks no LLC at all: an :class:`LLCServiceTrace` fixes every access's
service level by stream position, so resolving ahead costs nothing to
undo.

The batched path reads its L1 decisions from an :class:`L1ServiceTrace`
and its monitor input from a :class:`MonitorTrace`, both indexed by the
domain's committed stream position. That is exact: within a run, the
L1 state depends only on the address sequence, the monitor's feed only
on the public subsequence (through the shadow filter) or on the L1's
misses, and the LLC only on the L1-missing subsequence — none feeds
back into another — and a rolled-back replay is deterministic from the
restored state. A fixed private partition sees only its own domain's
L1-missing subsequence, so its hits are a function of the stream too.
Each trace walks passes of the cyclic stream (an LLC service trace
walks its current pass block by block, only as far as it is read) and
stops at the first pass that ends in the state it started in: from
then on every pass repeats it exactly. The monitor reading a trace
fixed before the run is Principle 1 made structural — it cannot see
timing.
"""

from __future__ import annotations

import enum
from time import perf_counter
from typing import Protocol

import numpy as np

from repro.config import ArchConfig
from repro.errors import ConfigurationError, SimulationError
from repro.monitor.umon import (
    MAX_TRACE_SIZES,
    UNFED,
    UNSAMPLED,
    mix64_array,
)
from repro.monitor.window import COLD_DISTANCE, StreamReuseWalk
from repro.sim.kernelmode import make_cache
from repro.sim.native import lru_kernel
from repro.sim.partition import LLCView


class _PassTrace:
    """Per-position outputs of a deterministic walk over a cyclic stream.

    A stream wraps forever (cores re-run it for pressure), so position
    ``pos`` lies in pass ``pos // period``. Subclasses walk one whole
    pass at a time (:meth:`_walk_pass`; :class:`LLCServiceTrace` also
    walks part of one, see :meth:`_slice`), append its outputs as one
    immutable ``bytes`` object, and compare their walk state at the pass
    boundary with the state one boundary earlier. Equal states mean the
    pass just walked repeats forever — the walkers are deterministic
    state machines fed the same pass of input — so the walk stops, the
    walk state is dropped, and every later position reads the last
    pass. Until then the trace walks lazily, as far as a reader asks.
    """

    __slots__ = ("_period", "_passes", "_repeats")

    def __init__(self, period: int):
        self._period = period
        self._passes: list[bytes] = []
        self._repeats = False

    @property
    def passes_walked(self) -> int:
        """Whole passes of the stream walked so far."""
        return len(self._passes)

    @property
    def cycle_found(self) -> bool:
        """Whether the last walked pass is known to repeat forever."""
        return self._repeats

    def warm(self) -> None:
        """Walk until the repeating pass is found; a no-op afterwards.

        Campaign engines call this in the parent process before forking
        workers, which then inherit a finished trace copy-on-write and
        never walk at all.
        """
        while self._period and not self._repeats:
            self._walk_pass()

    def _pass(self, index: int) -> bytes:
        passes = self._passes
        while index >= len(passes):
            if self._repeats:
                return passes[-1]
            self._walk_pass()
        return passes[index]

    def _read(self, start: int, stop: int, piece):
        """``piece(pass_bytes, offset, n)`` arrays concatenated over a range."""
        period = self._period
        if period == 0:
            raise ValueError("cannot trace a stream with no memory accesses")
        index, offset = divmod(start, period)
        n = stop - start
        if offset + n <= period:
            return self._slice(index, offset, n, piece)
        pieces = []
        while n:
            take = min(n, period - offset)
            pieces.append(self._slice(index, offset, take, piece))
            n -= take
            index += 1
            offset = 0
        return np.concatenate(pieces)

    def _slice(self, index: int, offset: int, n: int, piece):
        """``n`` outputs of pass ``index`` from ``offset`` on."""
        return piece(self._pass(index), offset, n)

    def _walk_pass(self) -> None:
        raise NotImplementedError


def _memory_addresses(stream) -> np.ndarray:
    """The stream's memory-access addresses, int32 when they fit."""
    addrs = stream.addresses[stream.mem_positions]
    if addrs.shape[0] and addrs.max() <= np.iinfo(np.int32).max:
        addrs = addrs.astype(np.int32)
    return addrs


def _unpack_bits(bits: bytes, offset: int, n: int) -> np.ndarray:
    first = offset >> 3
    packed = np.frombuffer(
        bits, dtype=np.uint8, count=((offset + n + 7) >> 3) - first, offset=first
    )
    start = offset & 7
    return np.unpackbits(packed, bitorder="little")[start : start + n].view(bool)


def _code_view(codes: bytes, offset: int, n: int) -> np.ndarray:
    return np.frombuffer(codes, dtype=np.uint8, count=n, offset=offset)


class L1ServiceTrace(_PassTrace):
    """Precomputed L1 hit/miss decisions for one workload stream.

    The private L1 is unaffected by the LLC, the monitor, and the other
    domains: its hit/miss pattern over a stream is a pure function of
    the address sequence alone (see the module docstring's feedback
    argument). That makes the pattern *shareable* — every cell that
    simulates the same stream (all partition sizes of one benchmark,
    every scheme of one mix), and every re-walk within one cell, can be
    served from a single walk of the L1 instead of each re-walking it
    with journaling and rollback.

    The trace walks whole passes of the stream's memory-access sequence
    through :meth:`~repro.sim.cache.SetAssociativeCache.access_run` on a
    private replica built by the same :func:`~repro.sim.kernelmode.make_cache`
    the live hierarchy uses — so the recorded decisions are bit-identical
    to the decisions the core's own L1 would have made — and stops at
    the first pass whose end state equals its start state (with LRU,
    usually pass 1, found after walking two). Decisions are stored one
    bit per walked position; the replica and the trace's int32 copy of
    the addresses live only until the repeat is found.
    """

    __slots__ = ("geometry", "_stream", "_addrs", "_cache", "_state")

    def __init__(self, stream, config: ArchConfig):
        super().__init__(int(stream.mem_positions.shape[0]))
        l1_sets = max(1, config.l1_lines // config.l1_associativity)
        self.geometry = (l1_sets, config.l1_associativity)
        self._stream = stream  # copied from on the first walk
        self._addrs: np.ndarray | None = None
        self._cache = None
        self._state: tuple | None = None

    def hit(self, pos: int) -> int:
        """1 if absolute access position ``pos`` hits in the L1, else 0."""
        index, offset = divmod(pos, self._period)
        passes = self._passes
        bits = passes[index] if index < len(passes) else self._pass(index)
        return (bits[offset >> 3] >> (offset & 7)) & 1

    def hits(self, start: int, stop: int) -> np.ndarray:
        """Hit/miss booleans for absolute access positions [start, stop)."""
        if stop <= start:
            return np.zeros(0, dtype=bool)
        return self._read(start, stop, _unpack_bits)

    def _walk_pass(self) -> None:
        if self._cache is None:
            self._addrs = _memory_addresses(self._stream)
            self._stream = None
            self._cache = make_cache(*self.geometry)
            self._state = self._cache.state()
        hits, _ = self._cache.access_run(self._addrs)
        self._passes.append(np.packbits(hits, bitorder="little").tobytes())
        state = self._cache.state()
        if state == self._state:
            self._repeats = True
            self._addrs = self._cache = self._state = None
        else:
            self._state = state


class MonitorTrace(_PassTrace):
    """Precomputed monitor input for one stream: one code byte per access.

    Principle 1 makes a monitor's input a function of the retired public
    access stream alone, and this simulator's conventional feed (live-L1
    misses) is one too. So for one (stream, L1 geometry, candidate
    sizes, sampling shift, feed mode) everything :meth:`UMONMonitor.observe
    <repro.monitor.umon.UMONMonitor.observe>` computes per access — is it
    fed, does set sampling keep it, which hits-per-size bin does its
    reuse distance land in — is fixed before any run. The trace records
    it as :data:`~repro.monitor.umon.UNFED`,
    :data:`~repro.monitor.umon.UNSAMPLED` or the bin index; monitors
    replay only the windowed bin accumulation
    (:meth:`~repro.monitor.umon.UMONMonitor.observe_codes`).

    ``filtered`` selects the feed. ``True`` (Untangle-style schemes):
    public accesses missing in a shadow L1 walked by public accesses
    only. ``False`` (conventional schemes): every live-L1 miss, read
    from ``l1_trace``. With no candidate sizes every kept access codes
    bin 0 and no reuse distances are computed (feed-only monitors).

    Passes are walked whole: feed mask, sampling mask, one
    :meth:`~repro.monitor.window.StreamReuseWalk.observe_at` (the
    compiled reuse walk over the stream's line ids, or the tracker's
    Python loop without the compiled module), one ``searchsorted``. The
    repeat check compares the shadow filter's state and the tracker's
    recency order (which alone decides every future reuse distance);
    an unfiltered trace additionally waits for the L1 trace to repeat
    at or before the pass. Walk state — filter, tracker, address and
    sampling copies — is dropped at the repeat, so a finished trace
    holds one byte per walked position.
    """

    __slots__ = ("geometry", "spec", "_stream", "_l1", "_addrs",
                 "_sampled", "_public", "_filter", "_tracker", "_state")

    def __init__(
        self,
        stream,
        config: ArchConfig,
        sizes: tuple[int, ...],
        sampling_shift: int,
        filtered: bool,
        l1_trace: L1ServiceTrace | None = None,
    ):
        super().__init__(int(stream.mem_positions.shape[0]))
        sizes = tuple(int(size) for size in sizes)
        if len(sizes) > MAX_TRACE_SIZES:
            raise ConfigurationError(
                f"a monitor trace encodes at most {MAX_TRACE_SIZES} "
                f"candidate sizes, got {len(sizes)}"
            )
        l1_sets = max(1, config.l1_lines // config.l1_associativity)
        self.geometry = (l1_sets, config.l1_associativity)
        if not filtered:
            if l1_trace is None or l1_trace.geometry != self.geometry:
                raise ValueError(
                    "an unfiltered monitor trace reads an L1 trace of the "
                    "same geometry"
                )
        #: What the trace encodes: ``(sizes, sampling_shift, filtered)``.
        self.spec = (sizes, int(sampling_shift), bool(filtered))
        self._stream = stream  # copied from on the first walk
        self._l1 = None if filtered else l1_trace
        self._addrs: np.ndarray | None = None
        self._sampled: np.ndarray | None = None
        self._public: np.ndarray | None = None
        self._filter = None
        self._tracker: StreamReuseWalk | None = None
        self._state: tuple | None = None

    def code(self, pos: int) -> int:
        """The code of absolute access position ``pos``."""
        index, offset = divmod(pos, self._period)
        passes = self._passes
        codes = passes[index] if index < len(passes) else self._pass(index)
        return codes[offset]

    def codes(self, start: int, stop: int) -> np.ndarray:
        """uint8 codes for absolute access positions [start, stop)."""
        if stop <= start:
            return np.zeros(0, dtype=np.uint8)
        return self._read(start, stop, _code_view)

    def _walk_state(self) -> tuple:
        tracker_order = b""
        if self._tracker is not None:
            tracker_order = self._tracker.recency_order()
        filter_state = self._filter.state() if self._filter is not None else None
        return filter_state, tracker_order

    def _walk_pass(self) -> None:
        sizes, shift, filtered = self.spec
        if self._addrs is None:
            stream = self._stream
            self._stream = None
            self._addrs = _memory_addresses(stream)
            if shift:
                mask = np.uint64((1 << shift) - 1)
                self._sampled = (mix64_array(self._addrs) & mask) == 0
            if filtered:
                excluded = stream.annotations.metric_excluded[stream.mem_positions]
                self._public = np.flatnonzero(~excluded)
                self._filter = make_cache(*self.geometry)
            if sizes:
                self._tracker = StreamReuseWalk(lru_kernel(), self._addrs)
            self._state = self._walk_state()
        index = len(self._passes)
        if filtered:
            public = self._public
            filter_hits, _ = self._filter.access_run(self._addrs[public])
            fed = public[~filter_hits]
        else:
            period = self._period
            fed = np.flatnonzero(
                ~self._l1.hits(index * period, (index + 1) * period)
            )
        codes = np.full(self._period, UNFED, dtype=np.uint8)
        if self._sampled is not None:
            codes[fed] = UNSAMPLED
            fed = fed[self._sampled[fed]]
        if self._tracker is not None:
            distances = self._tracker.observe_at(fed)
            bins = np.searchsorted(sizes, distances << shift, side="right")
            bins[distances == COLD_DISTANCE] = len(sizes)
            codes[fed] = bins
        else:
            codes[fed] = 0
        self._passes.append(codes.tobytes())
        state = self._walk_state()
        feed_repeats = filtered or (
            self._l1.cycle_found and self._l1.passes_walked <= index + 1
        )
        if feed_repeats and state == self._state:
            self._repeats = True
            self._l1 = self._addrs = self._sampled = self._public = None
            self._filter = self._tracker = self._state = None
        else:
            self._state = state


class MemoryLevel(enum.IntEnum):
    """The level of the hierarchy that served an access."""

    L1 = 1
    LLC = 2
    DRAM = 3


#: Positions an :class:`LLCServiceTrace` walks at a time: a read past
#: the walked part of the current pass walks on to the next multiple.
LLC_TRACE_BLOCK = 8192


class LLCServiceTrace(_PassTrace):
    """Precomputed service levels of one stream on a fixed LLC partition.

    A set partition that is private to one domain and never resized
    behaves exactly like a private set-associative cache fed that
    domain's L1-missing subsequence, which ``l1_trace`` fixes. So the
    level that serves each access — :class:`MemoryLevel` ``L1``, ``LLC``
    or ``DRAM`` — is a pure function of the stream, and the trace
    records it as one byte per position.

    The current pass is walked in blocks, only as far as it is read:
    a read past the walked part walks on to the next multiple of
    :data:`LLC_TRACE_BLOCK` positions (or the pass end). A block is the
    block's miss mask from ``l1_trace``, one
    :meth:`~repro.sim.cache.SetAssociativeCache.access_run` over the
    missing addresses on a replica partition built by the same
    :func:`~repro.sim.kernelmode.make_cache` as the live one (so its
    decisions match access for access), then the level codes, written
    into a buffer of one byte per position that is reused from pass to
    pass (reads of it are copies). A completed pass is stored as
    immutable ``bytes`` and checked for repetition: the walk stops at
    the first pass whose end state equals its start state once the L1
    trace has repeated at or before that pass (the condition the
    unfiltered :class:`MonitorTrace` feed uses); the replica, the buffer,
    the address copy and the L1 reference are dropped there. A Figure 11
    cell reads 1 + warmup passes, so it walks about that much plus one
    block instead of two whole passes.

    Each trace belongs to one memory and is not shared through the
    campaign memo: every (stream, partition size) pair is its own
    trace, and a Figure 11 cell is exactly one such pair.
    """

    __slots__ = (
        "geometry",
        "positions_walked",
        "_stream",
        "_l1",
        "_addrs",
        "_cache",
        "_state",
        "_partial",
        "_filled",
    )

    def __init__(
        self,
        stream,
        config: ArchConfig,
        llc_geometry: tuple[int, int],
        l1_trace: L1ServiceTrace,
    ):
        super().__init__(int(stream.mem_positions.shape[0]))
        l1_sets = max(1, config.l1_lines // config.l1_associativity)
        if l1_trace.geometry != (l1_sets, config.l1_associativity):
            raise ValueError(
                "an LLC service trace reads an L1 trace of the configured "
                "L1 geometry"
            )
        #: ``(sets, ways)`` of the partition the trace models.
        self.geometry = tuple(int(value) for value in llc_geometry)
        self._stream = stream  # copied from on the first walk
        self._l1: L1ServiceTrace | None = l1_trace
        self._addrs: np.ndarray | None = None
        self._cache = None
        self._state: tuple | None = None
        self._partial: np.ndarray | None = None
        #: Positions of the current pass walked so far.
        self._filled = 0
        #: Positions walked in all (exact work counter).
        self.positions_walked = 0

    def level(self, pos: int) -> int:
        """The service level code of absolute access position ``pos``."""
        index, offset = divmod(pos, self._period)
        passes = self._passes
        if index < len(passes):
            return passes[index][offset]
        return int(self._slice(index, offset, 1, _code_view)[0])

    def levels(self, start: int, stop: int) -> np.ndarray:
        """uint8 level codes for absolute access positions [start, stop)."""
        if stop <= start:
            return np.zeros(0, dtype=np.uint8)
        return self._read(start, stop, _code_view)

    def _slice(self, index: int, offset: int, n: int, piece):
        passes = self._passes
        while index > len(passes) and not self._repeats:
            self._walk_pass()
        if index < len(passes) or self._repeats:
            return piece(passes[min(index, len(passes) - 1)], offset, n)
        end = offset + n
        if end > self._filled:
            block = -(-end // LLC_TRACE_BLOCK) * LLC_TRACE_BLOCK
            self._walk_to(min(block, self._period))
            if index < len(passes):
                return piece(passes[index], offset, n)
        return self._partial[offset:end].copy()

    def _walk_pass(self) -> None:
        self._walk_to(self._period)

    def _walk_to(self, end: int) -> None:
        """Walk the current pass on to position ``end``; complete it at the end."""
        if self._cache is None:
            self._addrs = _memory_addresses(self._stream)
            self._stream = None
            self._cache = make_cache(*self.geometry)
            self._state = self._cache.state()
            self._partial = np.empty(self._period, dtype=np.uint8)
        index = len(self._passes)
        period = self._period
        start = self._filled
        l1 = self._l1
        base = index * period
        missed = ~l1.hits(base + start, base + end)
        llc_hits, _ = self._cache.access_run(self._addrs[start:end][missed])
        levels = self._partial[start:end]
        levels.fill(MemoryLevel.L1)
        levels[missed] = np.where(llc_hits, MemoryLevel.LLC, MemoryLevel.DRAM)
        self.positions_walked += end - start
        if end < period:
            self._filled = end
            return
        self._filled = 0
        self._passes.append(self._partial.tobytes())
        state = self._cache.state()
        input_repeats = l1.cycle_found and l1.passes_walked <= index + 1
        if input_repeats and state == self._state:
            self._repeats = True
            self._l1 = self._addrs = self._cache = self._state = None
            self._partial = None
        else:
            self._state = state


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
        "_level_latency",
        "_latency_table",
        "_config",
        "level_counts",
        "_l1_trace",
        "_l1_trace_pos",
        "_monitor_trace",
        "_llc_trace",
        "_walk",
        "epoch",
        "llc_walked",
        "llc_settles",
        "phases",
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
        # geometry as the L1 it models) on the untraced path; a traced
        # memory reads the filter's verdicts from its monitor trace.
        self._monitor_filter = (
            make_cache(l1_sets, config.l1_associativity)
            if monitor is not None and monitor_respects_annotations
            else None
        )
        self._l1_latency = config.l1_latency
        self._llc_latency = config.llc_latency
        self._dram_latency = config.dram_latency
        # Latency by MemoryLevel code (index 0 unused).
        self._level_latency = (
            0, config.l1_latency, config.llc_latency, config.dram_latency
        )
        self._latency_table = np.array(self._level_latency, dtype=np.int64)
        self._config = config
        self.level_counts = {level: 0 for level in MemoryLevel}
        self._l1_trace: L1ServiceTrace | None = None
        self._l1_trace_pos = 0
        self._monitor_trace: MonitorTrace | None = None
        self._llc_trace: LLCServiceTrace | None = None
        # The outstanding LLC walk of the last resolve:
        # (start position, addresses, L1-miss mask, view snapshot).
        self._walk: tuple | None = None
        #: Bumped by every settle that rolls a walked-ahead tail back:
        #: levels resolved under an older epoch are stale.
        self.epoch = 0
        #: LLC accesses walked (resolve walks, settle re-walks, scalar
        #: accesses) and settles that rolled a tail back.
        self.llc_walked = 0
        self.llc_settles = 0
        #: Phase-time accumulator while a traced ``sim.run`` is active
        #: (:class:`repro.sim.stats.KernelPhases`); ``None`` times nothing.
        self.phases = None

    @property
    def l1_trace(self) -> L1ServiceTrace | None:
        """The installed L1 service trace (``None`` on the scalar path)."""
        return self._l1_trace

    @property
    def monitor_trace(self) -> MonitorTrace | None:
        """The installed monitor trace (``None`` on the scalar path)."""
        return self._monitor_trace

    @property
    def llc_trace(self) -> LLCServiceTrace | None:
        """The installed LLC service trace (``None`` unless the LLC is fixed)."""
        return self._llc_trace

    @property
    def private_llc(self) -> bool:
        """Whether only this domain touches its LLC view's state.

        Read from the view (:attr:`~repro.sim.partition.LLCView.private`).
        """
        return bool(getattr(self.llc_view, "private", False))

    @property
    def fixed_llc_geometry(self) -> tuple[int, int] | None:
        """``(sets, ways)`` of a private, never-resized LLC view, else ``None``."""
        return getattr(self.llc_view, "fixed_geometry", None)

    def install_l1_trace(self, trace: L1ServiceTrace, stream) -> None:
        """Serve L1 decisions from a (possibly shared) service trace of ``stream``.

        Afterwards the live ``l1`` cache object is never walked: resolves
        slice the trace at this domain's committed stream position and
        only the L1-missing subsequence pays a per-access LLC walk. The
        caller must install the trace *before* the first access (a
        later install replaces an unused one), and the trace must cover
        exactly this domain's memory-access sequence in order. The
        trace position advances only at commit, which is what makes
        walking ahead free on the L1 side. ``l1.stats`` keeps hit/miss
        counts for served accesses; eviction counts are not modeled on
        the traced path (no consumer reads them). A monitored memory
        also needs a monitor trace (:meth:`install_monitor_trace`).
        Over a fixed LLC partition (:attr:`fixed_llc_geometry`) this
        also installs a fresh :class:`LLCServiceTrace` of ``stream``
        that reads ``trace``; over any other private view the memory
        binds itself as the partition's settle owner (:meth:`settle`).
        """
        if trace.geometry != (self.l1.num_sets, self.l1.associativity):
            raise ValueError(
                f"trace geometry {trace.geometry} does not match the L1 "
                f"({self.l1.num_sets} sets x {self.l1.associativity} ways)"
            )
        self._l1_trace = trace
        self._l1_trace_pos = 0
        if self.private_llc:
            self.llc_view.bind_settle(self)
        geometry = self.fixed_llc_geometry
        if geometry is not None:
            self.install_llc_trace(
                LLCServiceTrace(stream, self._config, geometry, trace)
            )

    @property
    def monitor_trace_spec(self) -> tuple | None:
        """The ``(sizes, sampling_shift, filtered)`` a monitor trace needs.

        ``None`` without a monitor. Read off the built monitor: one that
        consumes codes (:meth:`UMONMonitor.observe_codes
        <repro.monitor.umon.UMONMonitor.observe_codes>`) needs its
        candidate sizes and sampling shift encoded; any other sink only
        needs to know which accesses it is fed (no sizes, no sampling).
        ``filtered`` is the annotation-respecting shadow-filter feed.
        """
        monitor = self.monitor
        if monitor is None:
            return None
        if hasattr(monitor, "observe_codes"):
            sizes = tuple(monitor.candidate_sizes)
            shift = int(monitor.sampling_shift)
        else:
            sizes, shift = (), 0
        return sizes, shift, bool(self.monitor_respects_annotations)

    def install_monitor_trace(self, trace: MonitorTrace) -> None:
        """Feed the monitor from a (possibly shared) monitor trace.

        The trace is indexed by the same committed stream position as
        the L1 trace, so it must cover the same memory-access sequence
        and encode this memory's :attr:`monitor_trace_spec`. The shadow
        filter is then never walked, and the monitor never sees an
        address it would have to hash or look up in a stack.
        """
        if trace.geometry != (self.l1.num_sets, self.l1.associativity):
            raise ValueError(
                f"monitor trace geometry {trace.geometry} does not match "
                f"the L1 ({self.l1.num_sets} sets x "
                f"{self.l1.associativity} ways)"
            )
        if trace.spec != self.monitor_trace_spec:
            raise ValueError(
                f"monitor trace encodes {trace.spec}, this memory's "
                f"monitor needs {self.monitor_trace_spec}"
            )
        self._monitor_trace = trace

    def install_llc_trace(self, trace: LLCServiceTrace) -> None:
        """Serve LLC decisions from a service trace of this memory's stream.

        Only for a fixed LLC view (:attr:`fixed_llc_geometry`), and over
        the installed L1 trace: the trace is indexed by the same
        committed stream position. Afterwards neither the live L1 nor
        the live LLC partition is walked — resolves read service levels
        and commits apply counters — so, as with the L1, the live LLC's
        stats and contents are not modeled on this path (no consumer
        reads them; ``level_counts`` and ``l1.stats`` stay exact). A
        fixed partition is Static's, which monitors nothing, so a
        monitored memory is rejected rather than fed from a second path.
        """
        geometry = self.fixed_llc_geometry
        if trace.geometry != geometry:
            raise ValueError(
                f"LLC trace geometry {trace.geometry} does not match this "
                f"memory's fixed LLC partition {geometry}"
            )
        if self.monitor is not None:
            raise ValueError("an LLC service trace serves unmonitored memories")
        self._llc_trace = trace

    def access(self, line_addr: int, metric_excluded: bool = False) -> int:
        """Perform one memory access; returns its round-trip latency.

        ``metric_excluded`` marks secret-annotated accesses: they traverse
        the caches normally (the data still moves!) but are hidden from
        the monitor when annotations are respected — and excluded from
        its shadow filter, so they cannot even shift which public
        accesses the monitor sees. With traces installed the L1 decision
        and the monitor code are the traces' next position (the batched
        kernel's scalar mop-up; the annotation is already in the monitor
        trace), and an outstanding walk is settled first; without them
        the live L1 and the shadow filter are walked.
        """
        trace = self._l1_trace
        if trace is None:
            return self._access_untraced(line_addr, metric_excluded)
        if self._llc_trace is not None:
            return self._access_fixed()
        if self._walk is not None:
            self.settle()
            self._walk = None
        phases = self.phases
        if phases is not None:
            t0 = perf_counter()
        pos = self._l1_trace_pos
        self._l1_trace_pos = pos + 1
        hit = trace.hit(pos)
        if phases is not None:
            t1 = perf_counter()
            phases.l1_read_s += t1 - t0
        if self.monitor is not None:
            self._observe_at(pos, line_addr)
            if phases is not None:
                t2 = perf_counter()
                phases.monitor_feed_s += t2 - t1
                t1 = t2
        stats = self.l1.stats
        if hit:
            stats.hits += 1
            self.level_counts[MemoryLevel.L1] += 1
            return self._l1_latency
        stats.misses += 1
        latency = self._llc_access(line_addr)
        if phases is not None:
            phases.llc_walk_s += perf_counter() - t1
        return latency

    def _access_fixed(self) -> int:
        """The traced access of a fixed LLC: one service-level read."""
        phases = self.phases
        if phases is not None:
            t0 = perf_counter()
        pos = self._l1_trace_pos
        self._l1_trace_pos = pos + 1
        level = self._llc_trace.level(pos)
        if phases is not None:
            phases.llc_walk_s += perf_counter() - t0
        stats = self.l1.stats
        if level == MemoryLevel.L1:
            stats.hits += 1
        else:
            stats.misses += 1
        self.level_counts[level] += 1
        return self._level_latency[level]

    def _access_untraced(self, line_addr: int, metric_excluded: bool) -> int:
        """The reference path: walk the live L1 and the shadow filter."""
        filter_cache = self._monitor_filter
        if filter_cache is not None and not metric_excluded:
            if not filter_cache.access(line_addr):
                self.monitor.observe(line_addr)
        if self.l1.access(line_addr):
            self.level_counts[MemoryLevel.L1] += 1
            return self._l1_latency
        if (
            filter_cache is None
            and self.monitor is not None
            and (not self.monitor_respects_annotations or not metric_excluded)
        ):
            self.monitor.observe(line_addr)
        return self._llc_access(line_addr)

    def _llc_access(self, line_addr: int) -> int:
        self.llc_walked += 1
        if self.llc_view.access(line_addr):
            self.level_counts[MemoryLevel.LLC] += 1
            return self._llc_latency
        self.level_counts[MemoryLevel.DRAM] += 1
        return self._dram_latency

    def _observe_at(self, pos: int, line_addr: int) -> None:
        """Feed the monitor the trace code of one access position."""
        trace = self._monitor_trace
        if trace is None:
            raise SimulationError(
                "a traced memory with a monitor needs an installed monitor "
                "trace (see install_monitor_trace)"
            )
        code = trace.code(pos)
        observe_code = getattr(self.monitor, "observe_code", None)
        if observe_code is not None:
            observe_code(code)
        elif code != UNFED:
            self.monitor.observe(line_addr)

    @property
    def supports_speculation(self) -> bool:
        """Whether the LLC view can snapshot/restore, so it can be walked ahead."""
        return bool(getattr(self.llc_view, "supports_speculation", False))

    @property
    def worst_case_latency(self) -> int:
        """Upper bound on any single access's latency (a DRAM miss)."""
        return self._dram_latency

    def resolve_levels(
        self, n: int, addrs: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Service levels and latencies of the next ``n`` uncommitted accesses.

        With an LLC service trace installed the levels are read from it
        at the committed position and nothing changes (``addrs`` is not
        needed). Otherwise ``addrs`` holds those accesses' line
        addresses: the outstanding walk is settled, the L1 decisions are
        a slice of the L1 trace, and the L1-missing subsequence walks
        the live LLC view ahead in one ``access_run`` after a whole-state
        ``snapshot`` of the view. Either way a caller may resolve far ahead
        and commit the levels slice by slice (:meth:`commit_levels`) as
        its accesses actually execute; :meth:`settle` rolls back
        whatever of a walk the commits did not cover.
        """
        llc_trace = self._llc_trace
        if llc_trace is None:
            if self._walk is not None:
                self.settle()
            levels = self._walk_ahead(n, addrs)
        else:
            phases = self.phases
            if phases is not None:
                t0 = perf_counter()
            pos = self._l1_trace_pos
            levels = llc_trace.levels(pos, pos + n)
            if phases is not None:
                phases.llc_walk_s += perf_counter() - t0
        return levels, self._latency_table[levels]

    def _walk_ahead(self, n: int, addrs: np.ndarray | None) -> np.ndarray:
        """Levels of the next ``n`` accesses, walking the live LLC ahead."""
        trace = self._l1_trace
        if trace is None:
            raise SimulationError(
                "resolve_levels needs an installed L1 service trace "
                "(see install_l1_trace)"
            )
        if self.monitor is not None and self._monitor_trace is None:
            raise SimulationError(
                "resolve_levels with a monitor needs an installed monitor "
                "trace (see install_monitor_trace)"
            )
        if addrs is None or int(addrs.shape[0]) != n:
            raise ValueError(
                "walking a live LLC view needs the n accesses' addresses"
            )
        phases = self.phases
        if phases is not None:
            t0 = perf_counter()
        pos = self._l1_trace_pos
        miss_mask = ~trace.hits(pos, pos + n)
        miss_addrs = addrs[miss_mask]
        # Level codes: L1 (1) on an L1 hit, LLC (2) or DRAM (3) on a miss.
        levels = miss_mask.astype(np.uint8) + np.uint8(1)
        if phases is not None:
            t1 = perf_counter()
            phases.l1_read_s += t1 - t0
        snapshot = None
        if miss_addrs.shape[0]:
            view = self.llc_view
            snapshot = view.snapshot()
            levels[miss_mask] += ~view.access_run(miss_addrs)
            self.llc_walked += int(miss_addrs.shape[0])
        self._walk = (pos, addrs, miss_mask, snapshot)
        if phases is not None:
            phases.llc_walk_s += perf_counter() - t1
        return levels

    def commit_levels(self, levels: np.ndarray) -> None:
        """Commit the next ``len(levels)`` accesses, resolved by :meth:`resolve_levels`.

        ``levels`` are those accesses' service levels, in order.
        Advancing the committed position is the L1 commit; the service
        counters follow, and a monitor is fed the slice's codes. The LLC
        is not touched: a walk already left it as these accesses do.
        """
        count = int(levels.shape[0])
        if not count:
            return
        pos = self._l1_trace_pos
        _, l1_hits, llc_hits, _ = np.bincount(levels, minlength=4).tolist()
        self._commit_counts(count, count - l1_hits, llc_hits)
        if self.monitor is not None:
            self._feed_monitor(pos, count)

    def settle(self, timed: bool = True) -> None:
        """Roll back the part of the outstanding walk no commit covered.

        Restores the walk's snapshot and re-walks the committed prefix's
        misses (deterministic from the restored state, so they hit and
        miss as they did), leaving the LLC exactly as if only the
        committed accesses had happened, and bumps :attr:`epoch`: levels
        resolved past the committed position are stale. A tail that
        walked no LLC access needs no rollback and bumps nothing: the
        walk stays outstanding, since the levels resolved past the
        committed position are L1 hits whatever the LLC holds.

        Runs before the next resolve, before a scalar access, before
        the LLC really resizes a private partition (its settle owner,
        see :meth:`~repro.sim.partition.PartitionedLLC.bind_settle`), at
        the end of each ``Core.run`` call over a shared view, and when a
        system run ends. ``timed=False`` books no phase time: a settle
        inside a scheme hook is already timed as scheme time.
        """
        walk = self._walk
        if walk is None:
            return
        start, addrs, miss_mask, snapshot = walk
        done = self._l1_trace_pos - start
        if snapshot is None or not miss_mask[done:].any():
            # Nothing walked past the committed position: the LLC is
            # exact, and the walk stays readable for later commits.
            return
        self._walk = None
        phases = self.phases if timed else None
        if phases is not None:
            t0 = perf_counter()
        view = self.llc_view
        view.restore(snapshot)
        kept = addrs[:done][miss_mask[:done]]
        if kept.shape[0]:
            view.access_run(kept)
            self.llc_walked += int(kept.shape[0])
        self.epoch += 1
        self.llc_settles += 1
        if phases is not None:
            phases.llc_walk_s += perf_counter() - t0

    def _commit_counts(self, count: int, num_misses: int, num_llc: int) -> None:
        """Commit the next ``count`` accesses' position and service counters.

        Advancing the committed position is the L1 commit.
        """
        self._l1_trace_pos += count
        counts = self.level_counts
        counts[MemoryLevel.L1] += count - num_misses
        counts[MemoryLevel.LLC] += num_llc
        counts[MemoryLevel.DRAM] += num_misses - num_llc
        stats = self.l1.stats
        stats.hits += count - num_misses
        stats.misses += num_misses

    def _feed_monitor(self, pos: int, count: int) -> None:
        """Offer the monitor the codes of ``count`` accesses committed at ``pos``.

        Code-consuming monitors replay the codes; any other sink
        observes the addresses the trace marks as fed, read from the
        outstanding walk.
        """
        phases = self.phases
        if phases is not None:
            t0 = perf_counter()
        codes = self._monitor_trace.codes(pos, pos + count)
        monitor = self.monitor
        observe_codes = getattr(monitor, "observe_codes", None)
        if observe_codes is not None:
            observe_codes(codes)
        else:
            start, addrs = self._walk[:2]
            first = pos - start
            observe = monitor.observe
            for line_addr in addrs[first : first + count][codes != UNFED].tolist():
                observe(line_addr)
        if phases is not None:
            phases.monitor_feed_s += perf_counter() - t0

    def reset_level_counts(self) -> None:
        """Zero the per-level service counters (used at warmup end)."""
        for level in MemoryLevel:
            self.level_counts[level] = 0
