"""repro — a full reproduction of *Untangle* (ASPLOS 2023).

Untangle is a framework for constructing low-leakage, high-performance
dynamic partitioning schemes. It formally splits a scheme's leakage into
*action leakage* (what resizing actions are taken) and *scheduling
leakage* (when they are taken), gives design principles that eliminate
the former, and bounds the latter with a covert-channel model solved by
Dinkelbach's transform.

Package layout
--------------
* :mod:`repro.core` — the framework itself: trace leakage decomposition,
  design principles, covert-channel model, max-rate solver, precomputed
  rate tables, runtime leakage accounting, annotations.
* :mod:`repro.info` — entropy / mutual information substrate.
* :mod:`repro.sim` — the multicore cache-partitioning simulator.
* :mod:`repro.monitor` — UMON-style utilization monitoring.
* :mod:`repro.schemes` — Static, Shared, Time, and Untangle schemes.
* :mod:`repro.workloads` — synthetic SPEC17 + OpenSSL workload models
  and the paper's 16 evaluation mixes.
* :mod:`repro.analysis` — a miniature IR + taint analysis producing the
  secret-dependence annotations Untangle assumes.
* :mod:`repro.attacks` — idealized observer, active squeezer, replay
  campaigns, and an empirical covert-channel simulator.
* :mod:`repro.harness` — experiment drivers regenerating every figure
  and table of the paper's evaluation.

Quickstart
----------
>>> from repro.harness import run_mix, SCALED, render_figure_group, figure_group
>>> result = run_mix(1, SCALED)            # Figure 10, Mix 1  (~4 s, serial)
>>> print(render_figure_group(figure_group(1, SCALED, result)))
"""

from repro.config import ArchConfig
from repro.errors import (
    AnnotationError,
    ChannelModelError,
    ConfigurationError,
    DistributionError,
    LeakageBudgetExceeded,
    OptimizationError,
    PrincipleViolation,
    ReproError,
    SimulationError,
    TraceError,
)

__version__ = "1.0.0"

__all__ = [
    "ArchConfig",
    "ReproError",
    "DistributionError",
    "TraceError",
    "ChannelModelError",
    "OptimizationError",
    "ConfigurationError",
    "SimulationError",
    "PrincipleViolation",
    "LeakageBudgetExceeded",
    "AnnotationError",
    "__version__",
]
