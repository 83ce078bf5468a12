"""UMON-style LLC utilization monitor (Section 7 of the paper).

For each security domain, the monitor estimates how many LLC hits the
domain's recent accesses would have achieved under *each* supported
partition size. The hardware realization is a tag-only shadow table over
sampled sets; the software model here uses the equivalent Mattson stack
analysis (see :mod:`repro.monitor.window`): hits at size ``C`` = number
of monitored accesses with reuse distance below ``C`` lines.

Two operating modes matter for the paper:

* **Untangle mode** (``timing_independent=True``): the monitor is fed
  only *retired, public* post-L1 accesses in program order — secret-
  annotated accesses are filtered out upstream (Principle 1 plus
  annotations, Section 5.2).
* **Conventional mode** (``timing_independent=False``): every post-L1
  access is monitored, including secret-dependent ones. The scheme's
  actions then depend on secrets — the leakage Untangle eliminates.

Set sampling (``sampling_shift``) monitors only lines whose address
hashes into ``1 / 2**shift`` of the space and scales counts back up,
like UMON's sampled shadow sets.

The batched kernel never feeds addresses: a domain's feed, sampling
decisions and reuse distances are a pure function of its stream, so
:class:`repro.sim.hierarchy.MonitorTrace` computes them once per stream
as one *code* per memory-access position — the bin index, or
:data:`UNSAMPLED` / :data:`UNFED` — and :meth:`UMONMonitor.observe_codes`
replays only the windowed bin accumulation, whose ``reset_window()``
timing is the one part that depends on the schedule. That replay runs
in the compiled ``umon_feed`` entry point of ``repro.sim._lru``, loaded
on the first call (never at import); the Python loop it replaces stays
as the fallback where the module cannot be built.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.errors import ConfigurationError
from repro.monitor.window import COLD_DISTANCE, ReuseDistanceTracker

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Monitor-trace code of an access the monitor is not fed (an L1/filter
#: hit, or a secret-annotated access under Principle 1).
UNFED = 255
#: Monitor-trace code of a fed access the set-sampling filter drops.
UNSAMPLED = 254
#: Most candidate sizes a monitor trace can encode: bin indexes
#: ``0..len(sizes)`` must stay below the two sentinel codes.
MAX_TRACE_SIZES = 253


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: cheap avalanching hash for set sampling.

    Sampling on raw low address bits correlates with strided access
    patterns — a stride that is a multiple of ``2**shift`` is sampled at
    100% or 0%, biasing the hits-per-size curve. Hashing first makes the
    sampled subset pattern-independent (like UMON's set hashing).
    """
    x = int(x) & _MASK64
    x = (x ^ (x >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    x = (x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53 & _MASK64
    return x ^ (x >> 33)


_U64_SHIFT = np.uint64(33)
_U64_MULT1 = np.uint64(0xFF51AFD7ED558CCD)
_U64_MULT2 = np.uint64(0xC4CEB9FE1A85EC53)


def mix64_array(addrs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` over an address array; returns uint64.

    Bit-identical to the scalar finalizer: the int64 → uint64 cast is the
    two's-complement reinterpretation (``x & _MASK64``), and uint64
    multiplication wraps modulo ``2**64`` exactly like the masked Python
    product. Monitor traces hash a stream's addresses once through this
    (:class:`repro.sim.hierarchy.MonitorTrace`).
    """
    x = addrs.astype(np.uint64)
    x = (x ^ (x >> _U64_SHIFT)) * _U64_MULT1
    x = (x ^ (x >> _U64_SHIFT)) * _U64_MULT2
    return x ^ (x >> _U64_SHIFT)


class UMONMonitor:
    """Per-domain shadow monitor producing hits-per-candidate-size curves.

    Parameters
    ----------
    candidate_sizes:
        Ascending partition sizes (in lines) to evaluate — the scheme's
        action alphabet.
    window:
        Monitor window ``M_w``: the approximate number of recent monitored
        accesses summarized by a snapshot ("the monitor only considers the
        past M_w retired memory instructions", Section 8). Implemented as
        exponential aging: when the epoch exceeds the window, accumulated
        counts are halved.
    sampling_shift:
        Monitor only addresses with ``hash(addr) % 2**shift == 0``;
        counts are scaled by ``2**shift``. Zero monitors everything.
    timing_independent:
        Declared compliance with Principle 1; checked by
        :func:`repro.core.principles.require_timing_independent_metric`.
    """

    def __init__(
        self,
        candidate_sizes: tuple[int, ...] | list[int],
        window: int = 100_000,
        sampling_shift: int = 0,
        timing_independent: bool = True,
    ):
        sizes = list(candidate_sizes)
        if not sizes or sizes != sorted(set(sizes)):
            raise ConfigurationError("candidate sizes must be unique and ascending")
        if window < 1:
            raise ConfigurationError("monitor window must be >= 1")
        if sampling_shift < 0:
            raise ConfigurationError("sampling shift must be non-negative")
        self._sizes = sizes
        self._window = window
        self._sampling_shift = sampling_shift
        self._sampling_mask = (1 << sampling_shift) - 1
        self._scale = float(1 << sampling_shift)
        self.timing_independent = timing_independent
        self._tracker = ReuseDistanceTracker()
        # _bins[i] counts accesses whose smallest hitting size is sizes[i];
        # the last bin collects accesses that miss at every candidate size.
        self._bins = np.zeros(len(sizes) + 1, dtype=np.float64)
        self._epoch_accesses = 0.0
        #: The compiled bin feed; ``None`` until the first
        #: :meth:`observe_codes` resolves it, ``False`` when unavailable.
        self._feed = None
        self.total_observed = 0
        #: Accesses that passed the set-sampling filter (== fed to the
        #: stack tracker; equals ``total_observed`` when sampling is
        #: off). Exported on the ``sim.run`` trace span, so campaigns
        #: can verify the sampling rate the monitor actually achieved.
        self.sampled_observed = 0

    # ------------------------------------------------------------------
    @property
    def candidate_sizes(self) -> list[int]:
        return list(self._sizes)

    @property
    def window(self) -> int:
        return self._window

    @property
    def sampling_shift(self) -> int:
        return self._sampling_shift

    # ------------------------------------------------------------------
    def observe(self, line_addr: int) -> None:
        """Feed one post-L1 access (already annotation-filtered upstream)."""
        self.total_observed += 1
        if self._sampling_mask and (_mix64(line_addr) & self._sampling_mask):
            return
        self.sampled_observed += 1
        distance = self._tracker.observe(line_addr)
        if distance == COLD_DISTANCE:
            bin_index = len(self._sizes)
        else:
            # The tracker only sees the sampled 1/2**shift of the lines,
            # so its stack distance represents ~2**shift times as many
            # total lines (like UMON scaling sampled-set distances up to
            # full-cache capacity).
            distance <<= self._sampling_shift
            # Smallest candidate size C with distance < C; past the last
            # candidate the access misses at every size (the last bin).
            bin_index = bisect.bisect_right(self._sizes, distance)
        self._bins[bin_index] += 1.0
        self._epoch_accesses += 1.0
        if self._epoch_accesses * self._scale > self._window:
            # Exponential aging keeps the snapshot focused on roughly the
            # last `window` monitored accesses.
            self._bins *= 0.5
            self._epoch_accesses *= 0.5

    def observe_code(self, code: int) -> None:
        """Feed one monitor-trace code; equivalent to :meth:`observe`.

        ``code`` is what :meth:`observe` would compute for the access at
        this position of the stream: :data:`UNFED`, :data:`UNSAMPLED`,
        or the bin index (see :class:`repro.sim.hierarchy.MonitorTrace`).
        The trace has already advanced the stack tracker's equivalent,
        so only the counters and the windowed bins move here.
        """
        if code == UNFED:
            return
        self.total_observed += 1
        if code == UNSAMPLED:
            return
        self.sampled_observed += 1
        self._bins[code] += 1.0
        self._epoch_accesses += 1.0
        if self._epoch_accesses * self._scale > self._window:
            self._bins *= 0.5
            self._epoch_accesses *= 0.5

    def observe_codes(self, codes: np.ndarray) -> None:
        """Feed a run of monitor-trace codes (uint8) in one call.

        Equivalent, counter for counter and bit for bit, to
        :meth:`observe_code` once per code in order: the bin/epoch
        accumulation replays the per-access ``+= 1.0`` / halving
        sequence, in the compiled ``umon_feed`` on the bins in place, or
        without it on local Python floats (IEEE-754 identical to the
        numpy scalar ops) before writing back. The compiled feed
        compares the epoch with the window as a double, so it serves
        only windows a double holds exactly.
        """
        feed = self._feed
        if feed is None:
            from repro.sim.native import lru_kernel

            kernel = lru_kernel()
            exact = float(self._window) == self._window
            feed = self._feed = kernel is not None and exact and kernel.umon_feed
        if feed:
            fed, sampled, self._epoch_accesses = feed(
                codes, self._bins, self._epoch_accesses, self._scale, self._window
            )
            self.total_observed += fed
            self.sampled_observed += sampled
            return
        sampled = codes[codes < UNSAMPLED]
        self.total_observed += int(codes.shape[0]) - int(
            np.count_nonzero(codes == UNFED)
        )
        self.sampled_observed += int(sampled.shape[0])
        if not sampled.shape[0]:
            return
        scale = self._scale
        window = self._window
        bins = self._bins.tolist()
        epoch = self._epoch_accesses
        for bin_index in sampled.tobytes():
            bins[bin_index] += 1.0
            epoch += 1.0
            if epoch * scale > window:
                bins = [value * 0.5 for value in bins]
                epoch *= 0.5
        self._bins[:] = bins
        self._epoch_accesses = epoch

    def hits_per_size(self) -> np.ndarray:
        """Estimated hits at each candidate size over the current window.

        ``result[k]`` is the (scaled) number of recent accesses that would
        hit in a partition of ``candidate_sizes[k]`` lines. The curve is
        non-decreasing in size by construction (stack inclusion).
        """
        cumulative = np.cumsum(self._bins[:-1])
        return cumulative * self._scale

    def misses_at_size(self, size_index: int) -> float:
        """Estimated misses at candidate size ``size_index`` this window."""
        total = float(self._bins.sum()) * self._scale
        return total - float(self.hits_per_size()[size_index])

    def epoch_accesses(self) -> float:
        """Scaled number of accesses in the current aging window."""
        return self._epoch_accesses * self._scale

    def reset_window(self) -> None:
        """Clear the windowed counters (the LRU stack state persists)."""
        self._bins[:] = 0.0
        self._epoch_accesses = 0.0

    def clear(self) -> None:
        """Forget everything, including the stack state."""
        self.reset_window()
        self._tracker.reset()
        self.total_observed = 0
        self.sampled_observed = 0
