"""Shared numpy scratch for batched execution.

When the execution engine dispatches a *chunk* of compatible cells to
one worker (cell-major batching, ``docs/performance.md``), every cell
in the chunk re-allocates the same transient numpy arrays millions of
times: the interleaved delta/cumsum buffers of the batched CPU kernel
(:meth:`repro.sim.cpu.Core._run_batched`). This module provides one
growable scratch arena those cores stack their arrays into, installed
for the duration of a chunk (or a serial run), so allocator and
interpreter overhead is amortized across dozens of cells.

Correctness: every buffer handed out is *transient* — fully overwritten
before use and never stored beyond the call that requested it — so
sharing is bit-identical to fresh allocation. The arena is per-thread
(thread-local active slot); nested activations reuse the outer arena.

Usage::

    from repro.sim.batch import cell_scratch, active_scratch

    with cell_scratch():          # around a chunk of cells
        ...                       # kernels pick the arena up themselves

    scratch = active_scratch()    # inside a kernel; None = allocate fresh
    buf = scratch.f64(2 * n + 1, slot=0)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: Independent buffers an arena hands out; a kernel may hold this many
#: distinct live views at once (the deltas and their cumsum output).
SLOTS = 2

_ACTIVE = threading.local()


class CellScratch:
    """A growable arena of reusable float64 numpy buffers.

    ``f64(n, slot)`` returns a length-``n`` view of a persistent buffer,
    growing it geometrically when needed. Different ``slot`` values
    never alias, so a kernel can request its input and output buffers
    from separate slots and use ``out=`` safely.
    """

    __slots__ = ("_f64",)

    def __init__(self) -> None:
        self._f64: list[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in range(SLOTS)
        ]

    def f64(self, n: int, slot: int = 0) -> np.ndarray:
        """A float64 view of length ``n`` (contents undefined)."""
        buf = self._f64[slot]
        if buf.shape[0] < n:
            buf = np.empty(max(n, 2 * buf.shape[0]), dtype=np.float64)
            self._f64[slot] = buf
        return buf[:n]


def active_scratch() -> CellScratch | None:
    """The arena installed for the current thread, if any."""
    return getattr(_ACTIVE, "scratch", None)


@contextmanager
def cell_scratch() -> Iterator[CellScratch]:
    """Install a scratch arena for the current thread.

    Reentrant: a nested activation reuses (and must not tear down) the
    outer arena, so a chunk driver can wrap cells that themselves wrap
    sub-phases without double management.
    """
    existing = active_scratch()
    if existing is not None:
        yield existing
        return
    scratch = CellScratch()
    _ACTIVE.scratch = scratch
    try:
        yield scratch
    finally:
        _ACTIVE.scratch = None
