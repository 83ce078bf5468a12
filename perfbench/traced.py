"""Run one ``python -m repro`` command with the benchmark's layer spans.

Usage: ``python perfbench/traced.py TRACE_PATH <repro arguments...>``

The arguments must turn on the program's own sinks (``--trace
TRACE_PATH --metrics-out ...``), which record the ``engine.run``,
``cell.compute``, ``sim.run`` and ``journal.flush`` spans. Before the
command runs, this script wraps the public entry points of the other
layers so each call records a ``bench.*`` span through the program's
tracer, into the same file and with the same parent links. The wrappers
are installed in the supervisor before the engine forks, so its workers
inherit them. The import of ``repro.__main__`` is timed here too and
appended as a ``bench.cli.import`` span.

This file imports nothing from the benchmark package: it runs under the
program's ``PYTHONPATH`` only.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

#: (module, attribute, span name, record a ``hit`` attribute). An
#: attribute ``Class.method`` patches the class; a plain function is
#: replaced in every loaded ``repro`` module that imported it by name.
LAYER_ENTRY_POINTS = (
    ("repro.core.dinkelbach", "solve_rmax", "bench.rmax.solve", False),
    ("repro.harness.experiment", "warm_l1_traces", "bench.exec.prefork", False),
    ("repro.harness.experiment", "warm_rate_tables", "bench.exec.prefork", False),
    ("repro.sim.system", "MultiDomainSystem.__init__", "bench.sim.build", False),
    ("repro.harness.store", "cached_build_workload", "bench.workloads.build", False),
    ("repro.harness.store", "cached_spec_stream", "bench.workloads.build", False),
    ("repro.harness.exec", "ResultCache.get", "bench.cache.get", True),
    ("repro.harness.exec", "ResultCache.put", "bench.cache.put", False),
    ("repro.harness.journal", "RunJournal.record", "bench.journal.record", False),
    ("repro.harness.report", "render_table6", "bench.report.render", False),
    ("repro.harness.report", "render_sensitivity", "bench.report.render", False),
    ("repro.harness.report", "render_scenario", "bench.report.render", False),
)


def _spanned(fn, span_name: str, record_hit: bool):
    from repro.obs import trace as obs_trace

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs_trace.span(span_name) as span:
            result = fn(*args, **kwargs)
            if record_hit:
                span.set(hit=result is not None)
            return result

    return wrapper


def install_wrappers() -> None:
    for module_name, attribute, span_name, record_hit in LAYER_ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            setattr(cls, method, _spanned(getattr(cls, method), span_name, record_hit))
            continue
        original = getattr(module, attribute)
        wrapped = _spanned(original, span_name, record_hit)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and vars(
                loaded
            ).get(attribute) is original:
                setattr(loaded, attribute, wrapped)


def main(argv: list[str]) -> int:
    trace_path, repro_args = argv[0], argv[1:]
    wall = time.time()
    t0 = time.monotonic()
    import repro.__main__ as cli

    t1 = time.monotonic()
    line = {
        "kind": "span",
        "name": "bench.cli.import",
        "t0": t0,
        "t1": t1,
        "dur": t1 - t0,
        "wall": wall,
        "pid": os.getpid(),
        "id": f"{os.getpid()}-cli-import",
        "parent": None,
        "attrs": {},
    }
    with open(trace_path, "a") as sink:
        sink.write(json.dumps(line) + "\n")
    install_wrappers()
    return cli.main(repro_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
