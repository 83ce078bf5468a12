"""The Untangle framework core: the paper's primary contribution.

* :mod:`repro.core.actions`, :mod:`repro.core.trace` — resizing actions and
  traces (Section 3).
* :mod:`repro.core.decomposition` — action/scheduling leakage split
  (Section 5.1).
* :mod:`repro.core.principles` — the two design principles (Section 5.2).
* :mod:`repro.core.covert`, :mod:`repro.core.dinkelbach`,
  :mod:`repro.core.rates` — the scheduling-leakage covert-channel model and
  its max-rate solver (Section 5.3, Appendix A).
* :mod:`repro.core.accountant` — runtime leakage budgeting (Section 7).
* :mod:`repro.core.annotations` — secret-dependence annotations (Section 4).
"""

from repro.core.accountant import (
    AccountantReport,
    AssessmentCharge,
    ConservativeAccountant,
    LeakageAccountant,
)
from repro.core.actions import (
    ActionAlphabet,
    ActionKind,
    ResizingAction,
    action_sequence_key,
    maintain,
    resize,
)
from repro.core.annotations import (
    AnnotationKind,
    AnnotationSummary,
    AnnotationVector,
    concatenate_annotations,
)
from repro.core.covert import (
    CovertChannelModel,
    StrategyRate,
    no_delay,
    uniform_delay,
    worst_case_bits_per_assessment,
)
from repro.core.decomposition import (
    LeakageBreakdown,
    action_leakage,
    decompose,
    scheduling_leakage,
    total_leakage,
)
from repro.core.dinkelbach import (
    DinkelbachResult,
    RmaxResult,
    maximize_concave_on_simplex,
    solve_fractional,
    solve_rmax,
    solve_rmax_levels,
)
from repro.core.principles import (
    TimingIndependenceReport,
    check_timing_independence,
    require_progress_based_schedule,
    require_timing_independent_metric,
    require_untangle_compliant,
)
from repro.core.rates import RateEntry, RmaxTable, worst_case_table
from repro.core.trace import ResizingTrace, TraceEnsemble, TraceEvent

__all__ = [
    "ActionAlphabet",
    "ActionKind",
    "ResizingAction",
    "action_sequence_key",
    "maintain",
    "resize",
    "ResizingTrace",
    "TraceEnsemble",
    "TraceEvent",
    "LeakageBreakdown",
    "action_leakage",
    "scheduling_leakage",
    "total_leakage",
    "decompose",
    "CovertChannelModel",
    "StrategyRate",
    "uniform_delay",
    "no_delay",
    "worst_case_bits_per_assessment",
    "DinkelbachResult",
    "RmaxResult",
    "maximize_concave_on_simplex",
    "solve_fractional",
    "solve_rmax",
    "solve_rmax_levels",
    "RmaxTable",
    "RateEntry",
    "worst_case_table",
    "LeakageAccountant",
    "ConservativeAccountant",
    "AccountantReport",
    "AssessmentCharge",
    "AnnotationKind",
    "AnnotationVector",
    "AnnotationSummary",
    "concatenate_annotations",
    "TimingIndependenceReport",
    "check_timing_independence",
    "require_timing_independent_metric",
    "require_progress_based_schedule",
    "require_untangle_compliant",
]
