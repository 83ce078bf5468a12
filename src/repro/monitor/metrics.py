"""Utilization-metric protocol and timing-dependence declarations.

Table 2's first component: every dynamic partitioning scheme has a
utilization metric that reflects the program's demand for the resource.
Untangle's Principle 1 requires the metric to be *timing-independent*
(Section 5.2); compliance is a declared property checked at scheme
construction by :mod:`repro.core.principles` and validated dynamically by
the differential tests.

:class:`TimingDependentView` deliberately wraps a timing-independent
monitor as a timing-*dependent* metric. It models conventional schemes
(e.g. UMON's "hits in the last T cycles"): the same counters, but fed
with unfiltered accesses and sampled on a wall-clock schedule, which is
what entangles the metric value with program timing.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class UtilizationMonitor(Protocol):
    """A per-domain monitor consuming accesses and producing demand curves."""

    timing_independent: bool

    def observe(self, line_addr: int) -> None:
        ...

    def hits_per_size(self) -> np.ndarray:
        ...

    def reset_window(self) -> None:
        ...


class TimingDependentView:
    """Marks a monitor as violating Principle 1 (conventional schemes).

    All calls delegate to the wrapped monitor; only the declared
    ``timing_independent`` property changes. Conventional schemes built on
    this view cannot pass :func:`repro.core.principles.require_timing_independent_metric`.
    """

    timing_independent = False

    def __init__(self, inner: UtilizationMonitor):
        self._inner = inner

    def observe(self, line_addr: int) -> None:
        self._inner.observe(line_addr)

    def observe_code(self, code: int) -> None:
        self._inner.observe_code(code)  # type: ignore[attr-defined]

    def observe_codes(self, codes: np.ndarray) -> None:
        self._inner.observe_codes(codes)  # type: ignore[attr-defined]

    def hits_per_size(self) -> np.ndarray:
        return self._inner.hits_per_size()

    def reset_window(self) -> None:
        self._inner.reset_window()

    def epoch_accesses(self) -> float:
        return self._inner.epoch_accesses()  # type: ignore[attr-defined]

    @property
    def candidate_sizes(self) -> list[int]:
        return self._inner.candidate_sizes  # type: ignore[attr-defined]

    @property
    def sampling_shift(self) -> int:
        return self._inner.sampling_shift  # type: ignore[attr-defined]
