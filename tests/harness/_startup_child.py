"""Child process for ``test_startup``: run one CLI step in a fresh
interpreter and report which modules it loaded.

Usage: ``python _startup_child.py REPORT MODE [ARGS...]`` where MODE is

* ``import`` — only ``import repro.__main__``;
* ``engine`` — also ``build_engine(build_parser().parse_args(ARGS))``
  (``--help`` exits in the parser; its exit status is reported);
* ``main`` — ``repro.__main__.main(ARGS)``, recording the status of
  every cell the engine returns and, if the engine forks workers, the
  modules loaded when the first one is spawned.

Writes ``{"status", "loaded", "cells", "at_spawn"}`` as JSON to REPORT;
the command's own stdout and stderr pass through.
"""

from __future__ import annotations

import json
import sys


def main(report: str, mode: str, args: list[str]) -> int:
    import repro.__main__ as cli

    status = 0
    cells: list[str] = []
    at_spawn: list[str] | None = None
    if mode == "engine":
        try:
            cli.build_engine(cli.build_parser().parse_args(args))
        except SystemExit as exc:  # --help
            status = exc.code
    elif mode == "main":
        from repro.harness import exec as engine_module

        run = engine_module.ExecutionEngine.run
        spawn = engine_module._Supervisor._spawn

        def recording_run(self, *a, **kw):
            outcomes = run(self, *a, **kw)
            cells.extend(outcome.status for outcome in outcomes)
            return outcomes

        def recording_spawn(self):
            nonlocal at_spawn
            if at_spawn is None:
                at_spawn = sorted(sys.modules)
            return spawn(self)

        engine_module.ExecutionEngine.run = recording_run
        engine_module._Supervisor._spawn = recording_spawn
        status = cli.main(args)
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    with open(report, "w") as sink:
        json.dump(
            {
                "status": status,
                "loaded": sorted(sys.modules),
                "cells": cells,
                "at_spawn": at_spawn,
            },
            sink,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
