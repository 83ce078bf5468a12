"""Core execution and timing model.

Replaces gem5's cycle-level OoO core with a deterministic instruction-
level cost model that preserves the one coupling the evaluation needs:
IPC responds to LLC partition size through cache hits and misses.

Model
-----
* Every retired instruction costs ``1 / issue_width`` cycles of pipeline
  occupancy.
* A memory instruction additionally stalls the core for
  ``latency / mlp`` cycles, where ``latency`` is the round-trip latency
  of the serving level and ``mlp`` is the workload's memory-level
  parallelism factor (how many misses it typically overlaps).
* Optional per-access timing jitter models microarchitectural
  non-determinism (DRAM scheduling, prefetcher interference). Jitter
  changes *when* things happen but never *what* retires — exactly the
  separation Untangle's principles rely on, and what the differential
  timing-independence tests exploit.

Instruction streams are numpy arrays; the core walks them memory-access
by memory-access, retiring non-memory blocks in bulk, so simulation cost
is proportional to the number of memory accesses, not instructions.

Two inner kernels implement that walk (selected by ``REPRO_SIM_KERNEL``,
see :mod:`repro.sim.kernelmode`):

* The **batched** kernel resolves whole *runs* of events — memory
  accesses and stalls — at once, accumulating cycles with a vectorized
  interleaved cumulative sum that reproduces the scalar float-addition
  chain bit for bit. Because the resolve returns the *actual* latencies,
  the exact reference stopping point within the run — the cycle budget
  or the progress crossing — is found by binary search over the
  cumulative loop-top values. Runs never cross a measurement boundary
  (warmup end / slice end); events at those edges fall back to the
  scalar step, which performs the boundary bookkeeping at exactly the
  reference granularity. A batched core always reads its L1 decisions
  from an :class:`~repro.sim.hierarchy.L1ServiceTrace` and, when
  monitored, its monitor codes from a
  :class:`~repro.sim.hierarchy.MonitorTrace`: it installs private ones
  over its own stream, which campaign cells swap for shared ones walked
  once per stream. Each run is resolved once
  (:meth:`DomainMemory.resolve_levels`), *kept* across ``run()`` calls
  and committed slice by slice (:meth:`DomainMemory.commit_levels`): a
  quantum or progress stop costs one binary search and a counter
  commit. How far a run reaches depends on the LLC view:

  - A fixed private partition (Static) also gets an
    :class:`~repro.sim.hierarchy.LLCServiceTrace`, which fixes every
    latency by stream position; resolving ahead changes nothing. Such
    a core (:attr:`Core.service_fixed`) is not stopped at quanta at
    all when the scheme has no work between them: the system runs it
    once, to the iteration that finishes its slice
    (``run(..., until_finished=True)``), and once more to the last
    quantum boundary.
  - Any other private partition (Time, Untangle, Threshold) is walked
    ahead. Only a real resize changes it from outside, and the resize
    settles the walk first (:meth:`DomainMemory.settle`), which marks
    the kept run stale. Both kinds keep up to :data:`KEPT_RUN_EVENTS`
    events.
  - A shared view is touched by other domains between calls, so its
    runs are sized to the remaining cycle budget and every ``run()``
    call ends with a settle.
* The **reference** kernel is the original one-call-per-access loop,
  retained verbatim for differential testing and as the before/after
  baseline of ``benchmarks/bench_kernel.py``. Timing jitter draws one
  RNG value per access, so jittered cores always use the scalar loop
  regardless of kernel mode (the draw sequence is part of the result).

After a stream's slice finishes, the core keeps re-running the stream
(wrapping around) to maintain LLC pressure, per the paper's methodology,
while its statistics stay frozen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.config import ArchConfig
from repro.core.annotations import AnnotationVector
from repro.errors import ConfigurationError, SimulationError
from repro.sim.hierarchy import DomainMemory, L1ServiceTrace, MonitorTrace
from repro.sim.kernelmode import batching_enabled
from repro.sim.stats import DomainStats

#: Smallest event run worth dispatching as a batch; shorter runs go
#: through the scalar step (batch setup would cost more than it saves).
MIN_BATCH = 8

#: Longest run a core resolves and keeps across ``run()`` calls (bounds
#: the kept arrays to ~140 KB per core and the outstanding LLC walk to
#: this many accesses).
KEPT_RUN_EVENTS = 4096


class StopReason(enum.Enum):
    """Why :meth:`Core.run` returned control to the system driver."""

    #: The cycle budget of the current quantum was reached.
    QUANTUM = "quantum"
    #: The public-progress target was reached (Untangle assessment point).
    PROGRESS = "progress"
    #: The measured slice finished (only when asked, see :meth:`Core.run`).
    FINISHED = "finished"


class InstructionStream:
    """A dynamic instruction stream with secret-dependence annotations.

    Parameters
    ----------
    addresses:
        int64 array, one entry per instruction: the cache-line address
        accessed by a memory instruction, or ``-1`` for a non-memory
        instruction.
    annotations:
        Per-instruction :class:`~repro.core.annotations.AnnotationVector`;
        defaults to all-public.
    """

    __slots__ = (
        "addresses",
        "annotations",
        "stall_cycles",
        "length",
        "mem_positions",
        "event_positions",
        "cum_public",
        "public_per_pass",
        "max_stall",
    )

    def __init__(
        self,
        addresses: np.ndarray,
        annotations: AnnotationVector | None = None,
        stall_cycles: np.ndarray | None = None,
    ):
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if addresses.ndim != 1 or addresses.shape[0] == 0:
            raise ConfigurationError("instruction stream must be a non-empty 1-D array")
        if annotations is None:
            annotations = AnnotationVector.public(addresses.shape[0])
        if len(annotations) != addresses.shape[0]:
            raise ConfigurationError(
                "annotations must align with the instruction stream"
            )
        if stall_cycles is not None:
            stall_cycles = np.ascontiguousarray(stall_cycles, dtype=np.int64)
            if stall_cycles.shape != addresses.shape:
                raise ConfigurationError("stall cycles must align with the stream")
            if np.any(stall_cycles < 0):
                raise ConfigurationError("stall cycles must be non-negative")
        self.addresses = addresses
        self.annotations = annotations
        self.stall_cycles = stall_cycles
        self.length = int(addresses.shape[0])
        self.mem_positions = np.flatnonzero(addresses >= 0)
        # Positions the core must handle one at a time: memory accesses
        # plus explicit stalls (e.g. the usleep of Figure 1c).
        if stall_cycles is None:
            self.event_positions = self.mem_positions
            self.max_stall = 0
        else:
            self.event_positions = np.flatnonzero(
                (addresses >= 0) | (stall_cycles > 0)
            )
            self.max_stall = int(stall_cycles.max())
        # cum_public[i] = number of progress-counted instructions among the
        # first i instructions of one pass of the stream.
        counted = (~annotations.progress_excluded).astype(np.int64)
        self.cum_public = np.concatenate(([0], np.cumsum(counted)))
        self.public_per_pass = int(self.cum_public[-1])

    @property
    def memory_instruction_count(self) -> int:
        return int(self.mem_positions.shape[0])

    @property
    def memory_fraction(self) -> float:
        return self.memory_instruction_count / self.length


@dataclass(slots=True, eq=False)
class _KeptRun:
    """An event run resolved once, committed slice by slice.

    The run covers events ``[start, start + len(idx))`` of pass number
    ``wraps``, resolved while the memory was at ``epoch``. ``extras[j]``
    is what the run's ``j``-th event adds to the cycles beyond its issue
    slot. ``tops[j]`` is the loop-top cycle value before the ``j``-th
    event, from one sequential cumulative sum started at the core's
    cycles at event ``origin`` with the core at pass position
    ``rel_origin`` (events before ``origin`` have executed).
    ``mem_before[j]`` (stall streams only) counts the memory accesses
    among the first ``j`` events, which index ``levels``.
    """

    wraps: int
    epoch: int
    start: int
    origin: int
    rel_origin: int
    idx: np.ndarray
    extras: np.ndarray
    tops: np.ndarray
    levels: np.ndarray
    mem_before: np.ndarray | None


@dataclass
class CoreConfig:
    """Per-core execution parameters derived from the workload."""

    mlp: float = 2.0
    slice_instructions: int = 100_000
    warmup_instructions: int = 0
    timing_jitter: int = 0
    timing_jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.mlp <= 0:
            raise ConfigurationError("mlp must be positive")
        if self.slice_instructions < 1:
            raise ConfigurationError("slice must be at least one instruction")
        if self.warmup_instructions < 0 or self.timing_jitter < 0:
            raise ConfigurationError("warmup and jitter must be non-negative")


class Core:
    """One core executing one domain's instruction stream."""

    def __init__(
        self,
        domain: int,
        stream: InstructionStream,
        memory: DomainMemory,
        arch: ArchConfig,
        core_config: CoreConfig,
        stats: DomainStats,
    ):
        self.domain = domain
        self.stream = stream
        self.memory = memory
        self.stats = stats
        self._cpi = 1.0 / arch.issue_width
        self._inv_mlp = 1.0 / core_config.mlp
        self._warmup_end = core_config.warmup_instructions
        self._slice_end = (
            core_config.warmup_instructions + core_config.slice_instructions
        )
        self._jitter = core_config.timing_jitter
        self._jitter_rng = (
            np.random.default_rng(core_config.timing_jitter_seed)
            if core_config.timing_jitter > 0
            else None
        )
        # Jitter draws one RNG value per access, so jittered cores must
        # take the scalar loop to preserve the draw sequence. Walking
        # ahead additionally needs an LLC view that can snapshot/restore
        # its state, and reads L1 decisions and monitor codes from
        # traces over this core's stream (walked lazily, so a caller
        # swapping in shared traces pays nothing for these). A fixed
        # private LLC partition also gets a trace of its service
        # levels, which fixes every latency by stream position.
        self._use_batched = (
            batching_enabled()
            and core_config.timing_jitter == 0
            and memory.supports_speculation
        )
        # Other domains touch a shared view between calls: its runs are
        # sized to the budget, and each call ends with a settle.
        self._settle_each_call = self._use_batched and not memory.private_llc
        if self._use_batched:
            l1_trace = L1ServiceTrace(stream, arch)
            memory.install_l1_trace(l1_trace, stream)
            spec = memory.monitor_trace_spec
            if spec is not None:
                memory.install_monitor_trace(
                    MonitorTrace(stream, arch, *spec, l1_trace=l1_trace)
                )
        # Running estimate of the average cycle cost per event, used only
        # to size a shared view's runs against the remaining budget
        # (never to decide results — the stop point is computed exactly
        # afterwards).
        events = max(1, int(stream.event_positions.shape[0]))
        self._est_cost = (
            self._cpi * (stream.length / events)
            + self._cpi
            + arch.llc_latency * self._inv_mlp
        )

        self.cycles: float = 0.0
        self.retired: int = 0
        self.public_retired: int = 0
        self._rel_pos: int = 0
        self._mem_cursor: int = 0
        self._pass_public_base: int = 0
        self._wraps: int = 0
        self._kept: _KeptRun | None = None
        #: Loop-top cycles of the iteration that finished the slice, set
        #: by a ``run(..., until_finished=True)`` call that stopped there.
        self.finish_top: float | None = None
        self._measuring = self._warmup_end == 0
        if self._measuring:
            self.stats.begin_measurement(0.0, 0)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the measured slice has completed."""
        return self.stats.finished

    @property
    def now(self) -> int:
        """Current local time as an integer timestamp."""
        return int(self.cycles)

    @property
    def service_fixed(self) -> bool:
        """Whether every access's latency is fixed by its stream position.

        True for a batched core whose memory reads an
        :class:`~repro.sim.hierarchy.LLCServiceTrace` (a fixed private
        partition): nothing another domain or a scheme does between
        quanta can change what this core executes.
        """
        return self._use_batched and self.memory.llc_trace is not None

    # ------------------------------------------------------------------
    def _check_boundaries(self) -> None:
        if not self._measuring and self.retired >= self._warmup_end:
            self._measuring = True
            self.stats.begin_measurement(self.cycles, self.retired)
        if self._measuring and not self.stats.finished and self.retired >= self._slice_end:
            self.stats.end_measurement(self.cycles, self.retired)

    def _advance_nonmem(self, count: int) -> None:
        """Retire ``count`` instructions starting at the current position.

        The range must not contain a memory instruction (callers guarantee
        this by stopping at the next memory position).
        """
        if count <= 0:
            return
        start = self._rel_pos
        end = start + count
        self.cycles += count * self._cpi
        self.retired += count
        cum = self.stream.cum_public
        self.public_retired += int(cum[end] - cum[start])
        self._rel_pos = end
        self._check_boundaries()

    def _execute_event(self, rel_pos: int) -> None:
        """Retire the memory or stall instruction at ``rel_pos``."""
        stream = self.stream
        addr = int(stream.addresses[rel_pos])
        extra = 0.0
        if addr >= 0:
            latency = self.memory.access(
                addr, bool(stream.annotations.metric_excluded[rel_pos])
            )
            extra = latency * self._inv_mlp
            if self._jitter_rng is not None:
                extra += float(self._jitter_rng.integers(0, self._jitter + 1))
        if stream.stall_cycles is not None:
            extra += float(stream.stall_cycles[rel_pos])
        self.cycles += self._cpi + extra
        self.retired += 1
        if not stream.annotations.progress_excluded[rel_pos]:
            self.public_retired += 1
        self._rel_pos = rel_pos + 1
        self._check_boundaries()

    def _wrap_pass(self) -> None:
        """Start a fresh pass of the stream (pressure-maintenance loop)."""
        if self._rel_pos != self.stream.length:
            raise SimulationError("pass wrap before the stream tail retired")
        self._rel_pos = 0
        self._mem_cursor = 0
        self._pass_public_base = self.public_retired
        self._wraps += 1

    def _public_crossing_rel(self, progress_target: int) -> int | None:
        """Pass-relative position where public progress reaches the target.

        Returns the smallest ``i`` such that retiring the first ``i``
        instructions of the current pass reaches ``progress_target``
        public instructions in total, or ``None`` if the target is not
        reached within this pass.
        """
        needed = progress_target - self._pass_public_base
        if needed > self.stream.public_per_pass:
            return None
        index = int(np.searchsorted(self.stream.cum_public, needed, side="left"))
        return index if index <= self.stream.length else None

    # ------------------------------------------------------------------
    def run(
        self,
        until_cycle: float,
        progress_target: int | None = None,
        *,
        until_finished: bool = False,
    ) -> StopReason:
        """Execute until the cycle budget or the public-progress target.

        The core stops *exactly* at the instruction where the public
        progress counter reaches ``progress_target`` — this precision is
        what makes Untangle's assessment points (and hence its utilization
        metric snapshots) functions of the instruction stream alone.

        With ``until_finished`` (batched cores only) the call also stops
        after the loop iteration that finishes the measured slice,
        returns :attr:`StopReason.FINISHED` and records that iteration's
        loop-top cycles in :attr:`finish_top`. Without a progress target,
        ``run(a)`` then ``run(b)`` leaves the core as ``run(b)`` alone
        does, whatever the iteration the first call stopped at, so a
        caller can learn when the slice finishes and then carry on.
        """
        if self._use_batched:
            reason = self._run_batched(
                until_cycle, progress_target, until_finished
            )
            if self._settle_each_call:
                self.memory.settle()
            return reason
        if until_finished:
            raise SimulationError(
                "only a batched core stops where its slice finishes"
            )
        return self._run_reference(until_cycle, progress_target)

    def _run_reference(
        self, until_cycle: float, progress_target: int | None
    ) -> StopReason:
        """The original per-access loop, kept verbatim as the reference."""
        stream = self.stream
        event_positions = stream.event_positions
        num_events = event_positions.shape[0]
        length = stream.length
        while self.cycles < until_cycle:
            if progress_target is not None and self.public_retired >= progress_target:
                return StopReason.PROGRESS
            next_event = (
                int(event_positions[self._mem_cursor])
                if self._mem_cursor < num_events
                else length
            )
            if progress_target is not None:
                crossing = self._public_crossing_rel(progress_target)
                if crossing is not None and crossing <= next_event:
                    self._advance_nonmem(crossing - self._rel_pos)
                    return StopReason.PROGRESS
            if next_event >= length:
                self._advance_nonmem(length - self._rel_pos)
                self._wrap_pass()
                continue
            self._advance_nonmem(next_event - self._rel_pos)
            self._execute_event(next_event)
            self._mem_cursor += 1
        return StopReason.QUANTUM

    def _run_batched(
        self,
        until_cycle: float,
        progress_target: int | None,
        until_finished: bool = False,
    ) -> StopReason:
        """Batched kernel: resolve event runs ahead, commit exactly.

        Bit-exact with :meth:`_run_reference`. Each iteration continues
        the kept run (:meth:`_kept_run`), or resolves a new one, and
        commits the events the reference loop would execute now: with
        real latencies in hand, one interleaved cumulative sum
        reproduces the scalar float-addition chain bit for bit, and a
        binary search over its loop-top values finds exactly where the
        budget check stops; the progress crossing caps the commit the
        same way. Runs stop short of the next measurement boundary,
        which (like any window shorter than :data:`MIN_BATCH`) is
        stepped by the scalar path.

        Continuing a kept run is exact while its levels are: a fixed
        partition's never change, a private partition changes from
        outside only when resized, which settles the walk and bumps the
        memory's epoch, and a shared view settles at the end of each
        call. Run length is a pure performance knob — the commit point
        is computed exactly from actual latencies.

        ``until_finished`` stops after the iteration that finishes the
        slice. Only a one-step iteration can finish it — a committed
        run and a multi-event scalar window both end short of the
        boundary — so that iteration's loop top is ``top``, the cycles
        at the top of the outer loop.
        """
        stream = self.stream
        ev = stream.event_positions
        num_events = int(ev.shape[0])
        length = stream.length
        stats = self.stats

        crossing = (
            self._public_crossing_rel(progress_target)
            if progress_target is not None
            else None
        )
        finishing = until_finished and not stats.finished
        top = self.cycles
        while self.cycles < until_cycle:
            if finishing and stats.finished:
                break
            top = self.cycles
            if progress_target is not None and self.public_retired >= progress_target:
                return StopReason.PROGRESS
            cursor = self._mem_cursor
            next_event = int(ev[cursor]) if cursor < num_events else length
            if crossing is not None and crossing <= next_event:
                self._advance_nonmem(crossing - self._rel_pos)
                return StopReason.PROGRESS
            if next_event >= length:
                self._advance_nonmem(length - self._rel_pos)
                self._wrap_pass()
                if progress_target is not None:
                    crossing = self._public_crossing_rel(progress_target)
                continue

            rel_pos = self._rel_pos
            # Keep retired strictly below the next measurement boundary.
            if not self._measuring:
                boundary = self._warmup_end
            elif not stats.finished:
                boundary = self._slice_end
            else:
                boundary = -1
            cap = num_events
            if boundary >= 0:
                max_pos = rel_pos + boundary - self.retired - 2
                cap = int(np.searchsorted(ev, max_pos, side="right"))
            # Events at or past the crossing never execute this call.
            stop = cap
            if crossing is not None:
                before = int(np.searchsorted(ev, crossing, side="left"))
                if before < stop:
                    stop = before
            run = self._kept_run(cursor, rel_pos, cap, stop, until_cycle)
            if run is not None:
                self._commit_kept(run, cursor, rel_pos, until_cycle, stop)
                continue
            # Scalar mop-up for a window too short to batch. Events in
            # [cursor, stop) are strictly before the crossing and the
            # measurement boundary, so only the cycle budget can stop
            # early; a zero-length window is the capped boundary event
            # itself, which steps once as the reference would.
            end = stop if stop > cursor else cursor + 1
            while True:
                next_event = int(ev[cursor])
                self._advance_nonmem(next_event - self._rel_pos)
                self._execute_event(next_event)
                cursor += 1
                if cursor >= end or self.cycles >= until_cycle:
                    break
            self._mem_cursor = cursor
        if finishing and stats.finished:
            self.finish_top = top
            return StopReason.FINISHED
        return StopReason.QUANTUM

    def _loop_tops(self, rel_pos, idx, extras) -> np.ndarray:
        """Loop-top cycle values before each event of a run, and after it.

        Interleaves (gap advance, event retire) deltas and folds them
        with one strictly sequential cumulative sum started at the
        core's cycles; the even entries are the reference loop's
        loop-top values.
        """
        n = int(idx.shape[0])
        gaps = idx - np.concatenate(([rel_pos], idx[:-1] + 1))
        deltas = np.empty(2 * n + 1, dtype=np.float64)
        deltas[0] = self.cycles
        deltas[1::2] = gaps * self._cpi
        deltas[2::2] = self._cpi + extras
        return np.cumsum(deltas)[0::2]

    def _kept_run(
        self, cursor: int, rel_pos: int, cap: int, stop: int, until_cycle: float
    ) -> _KeptRun | None:
        """The kept run that continues at ``cursor``, resolving one if needed.

        The kept run is reused while its levels still hold — same pass,
        same memory epoch, ``cursor`` inside it, and the measurement cap
        ``cap`` at or beyond its end. If the core stands where its
        loop-top sum expects (the position after the last committed
        event, with equal cycles) the run continues as is: ``tops`` is
        one sequential sum, so continuing it adds the same deltas in the
        same order as resolving afresh from here would. After a stop in
        the middle of a gap (a progress stop) only the loop tops from
        ``cursor`` on are summed again. Otherwise a new run of up to
        :data:`KEPT_RUN_EVENTS` events before ``cap`` is resolved — for
        a shared view, only as many as the remaining budget is
        estimated to need before ``stop``, but at least
        :data:`MIN_BATCH`; ``None`` when fewer than :data:`MIN_BATCH`
        remain.
        """
        run = self._kept
        memory = self.memory
        if run is not None:
            j = cursor - run.start
            idx = run.idx
            if (
                run.epoch == memory.epoch
                and run.wraps == self._wraps
                and 0 <= j < idx.shape[0]
                and run.start + idx.shape[0] <= cap
            ):
                at = int(idx[j - 1]) + 1 if j > run.origin else run.rel_origin
                if rel_pos != at or run.tops[j] != self.cycles:
                    run.tops[j:] = self._loop_tops(rel_pos, idx[j:], run.extras[j:])
                    run.origin = j
                    run.rel_origin = rel_pos
                return run
        self._kept = None
        limit = cap
        if self._settle_each_call:
            # At least MIN_BATCH events even when the budget looks
            # shorter: the commit stops at the budget, and the call's
            # settle rolls the unused tail back.
            want = cursor + max(
                MIN_BATCH,
                int(0.9 * (until_cycle - self.cycles) / self._est_cost),
            )
            limit = min(stop, want)
        n = min(limit, cursor + KEPT_RUN_EVENTS) - cursor
        if n < MIN_BATCH:
            return None
        stream = self.stream
        stalls = stream.stall_cycles
        idx = stream.event_positions[cursor : cursor + n]
        addrs = stream.addresses[idx]
        if stalls is None:
            mem_before = None
            levels, latencies = memory.resolve_levels(n, addrs)
            extras = latencies * self._inv_mlp
        else:
            mem_mask = addrs >= 0
            mem_before = np.concatenate(([0], np.cumsum(mem_mask)))
            levels, latencies = memory.resolve_levels(
                int(mem_before[-1]), addrs[mem_mask]
            )
            extras = np.zeros(n, dtype=np.float64)
            extras[mem_mask] = latencies * self._inv_mlp
            extras = extras + stalls[idx]
        # Contiguous, so every later searchsorted reads it in place. The
        # epoch is read after the resolve, which may have settled.
        tops = np.ascontiguousarray(self._loop_tops(rel_pos, idx, extras))
        self._kept = run = _KeptRun(
            self._wraps, memory.epoch, cursor, 0, rel_pos,
            idx, extras, tops, levels, mem_before,
        )
        return run

    def _commit_kept(
        self,
        run: _KeptRun,
        cursor: int,
        rel_pos: int,
        until_cycle: float,
        stop: int,
    ) -> None:
        """Execute a kept run from ``cursor`` until the budget, ``stop`` or its end."""
        tops = run.tops
        n = int(run.idx.shape[0])
        j = cursor - run.start
        # First event whose loop-top check would fail the budget; every
        # loop top up to j is at most the core's cycles, below it.
        k = int(tops.searchsorted(until_cycle, side="left"))
        limit = min(n, stop - run.start)
        if k > limit:
            k = limit
        if run.mem_before is None:
            first, past = j, k
        else:
            first, past = int(run.mem_before[j]), int(run.mem_before[k])
        self.memory.commit_levels(run.levels[first:past])
        last = int(run.idx[k - 1])
        cum_public = self.stream.cum_public
        self.cycles = float(tops[k])
        self.retired += last + 1 - rel_pos
        self.public_retired += int(cum_public[last + 1] - cum_public[rel_pos])
        self._rel_pos = last + 1
        self._mem_cursor = run.start + k
        if self._settle_each_call:
            # Refresh the run-sizing estimate (perf only, never results).
            self._est_cost = 0.5 * (
                self._est_cost + (float(tops[k]) - float(tops[j])) / (k - j)
            )
        if k == n:
            self._kept = None
        self._check_boundaries()
