"""Process-local progress counter backing worker heartbeats.

A supervisor that only watches the clock cannot tell a *slow* cell from
a *hung* one: both are silent until the per-cell deadline expires. The
execution engine therefore has workers send periodic heartbeats carrying
this module's progress counter — a cheap, monotonically increasing
count of coarse work units completed in the current process:

* :class:`~repro.sim.system.MultiDomainSystem` beats once per scheduling
  quantum (thousands of simulated accesses, so the overhead is
  unmeasurable); a system of fixed partitions, which runs no quantum
  loop, beats after each core run the quanta that run spanned,
* the lock-step R_max solver (:func:`~repro.core.dinkelbach.solve_rmax_levels`)
  beats once per Dinkelbach round (a pool worker solving an R_max table
  runs no quanta), and
* the engine's worker loop beats once per finished cell,

so a cell that is *computing* advances the counter between heartbeats,
while a cell that is stuck — deadlocked, sleeping, wedged in a syscall —
sends heartbeats with a frozen counter (or none at all, if the whole
process is stopped). The supervisor turns that distinction into
``worker.unresponsive`` events and early stall kills; see
``repro.harness.exec``.

The counter is deliberately *not* shared between processes: each worker
reports its own counter over its own pipe, and only deltas matter.
"""

from __future__ import annotations


class _Progress:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


_PROGRESS = _Progress()


def progress_beat(amount: int = 1) -> None:
    """Advance this process's progress counter by ``amount`` units.

    Called from coarse-grained work loops (per simulation quantum, per
    finished cell). The heartbeat thread only ever *reads* the counter,
    so a plain attribute increment under the GIL is race-free enough —
    a lost update merely delays liveness evidence by one beat.
    """
    _PROGRESS.value += amount


def progress_value() -> int:
    """Current value of this process's progress counter."""
    return _PROGRESS.value
