"""Startup reaping of SIGKILL-orphaned fault state.

Unit tests drive :mod:`repro.harness.reaper` against synthetic roots so
the ownership rules are pinned exactly: dead owner → reaped, live owner
→ kept, no readable owner → kept until conservatively old.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.faults import STATE_DIR_PREFIX, STATE_PID_FILE
from repro.harness.reaper import (
    FAULT_STATE_UNKNOWN_OWNER_AGE,
    reap_orphan_fault_state,
)


@pytest.fixture()
def dead_pid() -> int:
    """A PID guaranteed to name no live process (just-reaped child)."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait(timeout=30)
    return proc.pid


def age(path: Path, seconds: float) -> None:
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestFaultStateSweep:
    def _state_dir(self, root: Path, name: str, owner: int | None) -> Path:
        path = root / f"{STATE_DIR_PREFIX}{name}"
        path.mkdir()
        (path / "some-fault.fired").touch()
        if owner is not None:
            (path / STATE_PID_FILE).write_text(str(owner))
        return path

    def test_dead_owner_dir_is_reaped(self, tmp_path, dead_pid):
        path = self._state_dir(tmp_path, "x1", dead_pid)
        assert reap_orphan_fault_state(tmp_path) == [str(path)]
        assert not path.exists()

    def test_live_owner_dir_is_kept(self, tmp_path):
        path = self._state_dir(tmp_path, "x2", os.getpid())
        assert reap_orphan_fault_state(tmp_path) == []
        assert path.exists()

    def test_unstamped_dir_kept_until_old(self, tmp_path):
        path = self._state_dir(tmp_path, "x3", None)
        assert reap_orphan_fault_state(tmp_path) == []
        age(path, FAULT_STATE_UNKNOWN_OWNER_AGE + 60)
        assert reap_orphan_fault_state(tmp_path) == [str(path)]
        assert not path.exists()
