"""Start-up loads only what a command runs.

A replay from a filled result cache, ``--help`` and building the engine
assemble results and options only, so none of them may import NumPy,
the simulator, the schemes, the monitors or the framework core: those
load on the path that computes a cell. Nor may a replay run plugin
discovery (``importlib.metadata``). A parallel cold run must still
load them in the supervisor *before* it forks, so every worker inherits
them instead of importing them again after ``fork``.

Each step runs in a fresh interpreter (``_startup_child.py``), since
this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
CHILD = Path(__file__).with_name("_startup_child.py")

#: Modules only the path that computes a cell may load.
COMPUTE_PACKAGES = (
    "numpy",
    "repro.sim",
    "repro.schemes",
    "repro.monitor",
    "repro.core",
)

#: The two paper commands, at the small profile.
COMMANDS = {"table6": 12, "sensitivity": 324}


def compute_modules(loaded: list[str]) -> list[str]:
    return [
        name
        for name in loaded
        if any(
            name == package or name.startswith(package + ".")
            for package in COMPUTE_PACKAGES
        )
    ]


def run_child(tmp_path: Path, mode: str, *args: str) -> tuple[dict, bytes]:
    """Run one step; returns (its report, its stdout)."""
    report = tmp_path / f"report-{mode}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(CHILD), str(report), mode, *args],
        capture_output=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    return json.loads(report.read_text()), result.stdout


def argv(cache: Path, command: str, jobs: int) -> list[str]:
    return [
        "--profile", "test", "--jobs", str(jobs),
        "--cache-dir", str(cache), command,
    ]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """Each command run cold with two workers into its own cache."""
    runs = {}
    for command in COMMANDS:
        tmp = tmp_path_factory.mktemp(f"cold-{command}")
        cache = tmp / "cache"
        report, stdout = run_child(tmp, "main", *argv(cache, command, 2))
        runs[command] = (cache, report, stdout)
    return runs


class TestColdRunForksWithTheSimulatorLoaded:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_workers_inherit_the_simulator(self, cold, command):
        _, report, _ = cold[command]
        assert report["status"] == 0
        assert report["cells"] == ["computed"] * COMMANDS[command]
        at_spawn = report["at_spawn"]
        assert at_spawn is not None, "the run never spawned a worker"
        assert "numpy" in at_spawn
        assert "repro.sim.system" in at_spawn


class TestReplayLoadsNoSimulator:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_warm_replay(self, cold, tmp_path, command):
        cache, _, cold_stdout = cold[command]
        report, stdout = run_child(
            tmp_path, "main", *argv(cache, command, 2)
        )
        assert report["status"] == 0
        assert report["cells"] == ["hit"] * COMMANDS[command]
        assert report["at_spawn"] is None
        assert stdout == cold_stdout
        assert compute_modules(report["loaded"]) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_warm_replay_discovers_no_plugins(self, cold, tmp_path, command):
        """Building the parser and replaying never scan installed
        distributions for scheme plugins: ``--schemes`` resolves its
        names only when it is given."""
        cache, _, _ = cold[command]
        report, _ = run_child(tmp_path, "main", *argv(cache, command, 2))
        assert report["status"] == 0
        assert "importlib.metadata" not in report["loaded"]

    def test_import_alone(self, tmp_path):
        report, _ = run_child(tmp_path, "import")
        assert "repro.__main__" in report["loaded"]
        assert compute_modules(report["loaded"]) == []

    def test_help(self, tmp_path):
        report, stdout = run_child(tmp_path, "engine", "--help")
        assert report["status"] == 0
        assert stdout.startswith(b"usage: python -m repro")
        assert compute_modules(report["loaded"]) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_building_the_engine(self, tmp_path, command):
        report, _ = run_child(
            tmp_path, "engine", *argv(tmp_path / "cache", command, 2)
        )
        assert compute_modules(report["loaded"]) == []
