"""Workload models: SPEC17-like benchmarks, crypto benchmarks, mixes.

The names below load their submodule on first access (PEP 562), so
importing one light submodule — the benchmark table, the mixes, the
scale — does not pull in NumPy or the simulator that composing a
workload needs.
"""

from __future__ import annotations

import importlib

#: Public name -> the submodule defining it.
_EXPORTS = {
    "CRYPTO_BENCHMARKS": "crypto",
    "CryptoBenchmark": "crypto",
    "get_crypto_benchmark": "crypto",
    "PAPER_MIXES": "mixes",
    "get_mix": "mixes",
    "mix_demand_mb": "mixes",
    "mix_labels": "mixes",
    "mix_sensitive_count": "mixes",
    "DEFAULT_LINES_PER_MB": "scale",
    "WorkloadScale": "scale",
    "LLC_SENSITIVE_NAMES": "spec",
    "SPEC_BENCHMARKS": "spec",
    "SpecBenchmark": "spec",
    "get_spec_benchmark": "spec",
    "BuiltWorkload": "workload",
    "assemble_workload": "workload",
    "build_workload": "workload",
    "compose_workload_arrays": "workload",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value

