"""Experiment harness: profiles, mix experiments, figures, tables.

The names below load their submodule on first access (PEP 562):
``from repro.harness import run_mix, SCALED`` works as before, while a
command that imports one submodule — the CLI replaying cached results —
loads nothing else from here.
"""

from __future__ import annotations

import importlib

#: Public name -> the submodule defining it.
_EXPORTS = {
    "CellOutcome": "exec",
    "EngineTelemetry": "exec",
    "ExecutionEngine": "exec",
    "MixSchemeCell": "exec",
    "ResultCache": "exec",
    "SensitivityCell": "exec",
    "backoff_delay": "exec",
    "cell_key": "exec",
    "engine_from_env": "settings",
    "FaultPlan": "faults",
    "faults_from_env": "faults",
    "parse_fault_spec": "faults",
    "JournalEntry": "journal",
    "RunJournal": "journal",
    "MixResult": "experiment",
    "SchemeRunResult": "experiment",
    "WorkloadResult": "experiment",
    "make_scheme": "experiment",
    "mix_labels": "experiment",
    "run_custom_mix": "experiment",
    "run_mix": "experiment",
    "run_mix_grid": "experiment",
    "run_mix_scheme": "experiment",
    "FigureGroup": "figures",
    "WorkloadRow": "figures",
    "figure11_data": "figures",
    "figure_group": "figures",
    "LARGE": "runconfig",
    "PROFILES": "runconfig",
    "SCALED": "runconfig",
    "TEST": "runconfig",
    "RunProfile": "runconfig",
    "SensitivityCurve": "sensitivity",
    "classify_benchmarks": "sensitivity",
    "run_sensitivity_curve": "sensitivity",
    "run_sensitivity_study": "sensitivity",
    "ActiveAttackerSummary": "tables",
    "Table6": "tables",
    "Table6Row": "tables",
    "active_attacker_summary": "tables",
    "table6": "tables",
    "render_active_attacker": "report",
    "render_figure_group": "report",
    "render_sensitivity": "report",
    "render_table6": "report",
    "render_telemetry": "report",
    "size_label": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value

