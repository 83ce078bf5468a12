"""Simulation-kernel selection: batched (default) vs reference.

The simulator has two equivalent inner kernels:

* ``batched`` — the production path: array-state LRU caches stepped
  by a compiled walk (:class:`repro.sim.cache.SetAssociativeCache`),
  memory-access runs
  resolved ahead through
  :meth:`repro.sim.hierarchy.DomainMemory.resolve_levels` with L1
  decisions from an :class:`repro.sim.hierarchy.L1ServiceTrace`, kept
  across quantum and progress stops and committed slice by slice, and
  vectorized stall accounting in :class:`repro.sim.cpu.Core`.
* ``reference`` — the original per-access kernel: list-based caches
  (:class:`repro.sim.cache.ReferenceSetAssociativeCache`) and the
  one-call-per-access core loop, retained for differential testing and
  as the before/after baseline of ``benchmarks/bench_kernel.py``.

Results are bit-identical between the two — hit/miss/eviction/
invalidation counters, IPC, resizing traces, and leakage numbers — which
the equivalence tests pin for every scheme. Select with the
``REPRO_SIM_KERNEL`` environment variable (read at construction time, so
a test can flip it per simulation with ``monkeypatch.setenv``).

In batched mode :func:`make_cache` builds reference caches for non-LRU
policies, and for every cache when the compiled LRU walk cannot be
built (:mod:`repro.sim.native` warns once); the batched core path runs
unchanged over them, with bit-identical results.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError
from repro.sim.cache import ReferenceSetAssociativeCache, SetAssociativeCache
from repro.sim.native import lru_kernel
from repro.sim.replacement import LRUPolicy, ReplacementPolicy

#: Environment variable selecting the simulation kernel.
KERNEL_ENV = "REPRO_SIM_KERNEL"

#: Recognized kernel modes.
KERNEL_MODES = ("batched", "reference")


def kernel_mode() -> str:
    """The currently selected kernel mode (``batched`` unless overridden)."""
    mode = os.environ.get(KERNEL_ENV, "batched").strip().lower() or "batched"
    if mode not in KERNEL_MODES:
        raise ConfigurationError(
            f"unknown {KERNEL_ENV} value {mode!r}; expected one of {KERNEL_MODES}"
        )
    return mode


def batching_enabled() -> bool:
    """Whether the batched kernel is selected."""
    return kernel_mode() == "batched"


def make_cache(
    num_sets: int,
    associativity: int,
    policy: ReplacementPolicy | None = None,
):
    """A set-associative cache built for the selected kernel mode.

    The compiled LRU cache in batched mode when it is available (the
    first call may build it); otherwise the reference model.
    """
    if (
        (policy is None or isinstance(policy, LRUPolicy))
        and batching_enabled()
        and lru_kernel() is not None
    ):
        return SetAssociativeCache(num_sets, associativity)
    return ReferenceSetAssociativeCache(num_sets, associativity, policy)
