"""The benchmark's workloads: which ``python -m repro`` commands each runs.

Every workload runs the real command line with ``--jobs 2`` (the core
count of the host the bounds were set on) from one benchmark process:

* ``table6-cold`` — Table 6, the paper's headline artifact, into an empty
  cache: 12 cells of 8-domain systems at 4000-cycle quanta plus 14 R_max
  solves. Almost all of the time is the ``repro.sim`` kernel, so kernel
  and Dinkelbach changes show here and control-plane changes should not.
* ``fig11-cold`` — the Figure 11 sensitivity study into an empty cache:
  324 single-domain cells at 250-cycle quanta. Same kernel, used
  differently, and the per-cell costs (system build, spec-stream store
  loads, journal commits, cache appends) are paid 324 times.
* ``replay-warm`` — both paper-input commands again against caches
  their cold runs filled: 336 hits, nothing simulated. Start-up, cache
  reads, journal handling and rendering dominate.

The seed selects the inputs of ``table6-cold``. :data:`PAPER_SEED` (the
run profile's own base seed) runs the paper's ``table6`` command, whose
stdout digest is pinned; any other seed runs the same 12-cell grid from
a generated scenario spec with ``profile_overrides.seed = <seed>``.
Those held-back inputs are checked by invariants instead of a digest.
The sensitivity study takes no seed, and ``replay-warm`` always replays
the paper's inputs (its cost does not depend on what the cached results
are), so both are always digest-checked and the replayed caches can be
filled once per source tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: ``RunProfile.seed`` of every built-in profile: the paper's fixed inputs.
PAPER_SEED = 2023

#: Worker processes for every command (``nproc`` on the reference host).
JOBS = 2

#: The paper's Table 6 average per-assessment reduction, Untangle vs Time.
PAPER_LEAK_REDUCTION_PCT = 78.0

#: sha256 of the stdout of the paper-input commands at this tree's
#: simulator; a simulator change that moves results must update them.
TABLE6_DIGEST = "46474f958f48ba3de7f75a578d4bf4e53dd445047d656260171bf5b7a64a8352"
SENSITIVITY_DIGEST = (
    "e2b63504ab867e352af5d6b10c25fa2d1e64f91cf4ec6ed563e9392d896d7cba"
)

TABLE6_CELLS = 12
SENSITIVITY_CELLS = 324


@dataclass(frozen=True)
class Command:
    """One ``python -m repro`` invocation of a workload."""

    name: str
    #: Global options before the subcommand (``--jobs``/cache added later).
    options: tuple[str, ...]
    #: Subcommand and its arguments; ``{spec}`` stands for the spec path.
    subcommand: tuple[str, ...]
    cells: int
    #: Expected stdout sha256, or ``None`` for held-back inputs.
    digest: str | None = None
    #: Scenario spec the benchmark writes before running, if any.
    spec: dict | None = None

    def argv(self, cache_dir: Path, spec_path: Path | None, *extra: str) -> list[str]:
        """Arguments after ``python -m repro``."""
        sub = [
            str(spec_path) if part == "{spec}" else part
            for part in self.subcommand
        ]
        return [
            *self.options,
            "--jobs",
            str(JOBS),
            "--cache-dir",
            str(cache_dir),
            "--telemetry",
            *extra,
            *sub,
        ]

    def write_spec(self, directory: Path) -> Path | None:
        """Write this command's scenario spec into ``directory``."""
        if self.spec is None:
            return None
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.spec, indent=2) + "\n")
        return path


def table6_command(seed: int) -> Command:
    """Table 6 at the ``bench`` profile, on the paper's or held-back inputs."""
    if seed == PAPER_SEED:
        return Command(
            "table6",
            ("--profile", "bench"),
            ("table6",),
            TABLE6_CELLS,
            digest=TABLE6_DIGEST,
        )
    return Command(
        "table6",
        (),
        ("scenario", "{spec}"),
        TABLE6_CELLS,
        spec={
            "scenario": {
                "name": f"table6-seed{seed}",
                "profile": "bench",
                "mixes": [1, 2, 3, 4],
                "schemes": ["static", "time", "untangle"],
                "profile_overrides": {"seed": seed},
            }
        },
    )


def sensitivity_command() -> Command:
    """The Figure 11 study at the CLI's default ``scaled`` profile."""
    return Command(
        "sensitivity",
        (),
        ("sensitivity",),
        SENSITIVITY_CELLS,
        digest=SENSITIVITY_DIGEST,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    #: Cold workloads start every iteration from an empty cache; the
    #: warm one replays caches filled (untimed) by a cold run.
    cold: bool

    @property
    def cells(self) -> int:
        return sum(command.cells for command in self.commands)


WORKLOAD_NAMES = ("table6-cold", "fig11-cold", "replay-warm")


def make_workload(name: str, seed: int) -> Workload:
    if name == "table6-cold":
        return Workload(name, (table6_command(seed),), cold=True)
    if name == "fig11-cold":
        return Workload(name, (sensitivity_command(),), cold=True)
    if name == "replay-warm":
        return Workload(
            name, (table6_command(PAPER_SEED), sensitivity_command()), cold=False
        )
    raise ValueError(
        f"unknown workload {name!r}; choose one of {', '.join(WORKLOAD_NAMES)}"
    )
