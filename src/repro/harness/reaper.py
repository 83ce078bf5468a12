"""Startup reaping of resources orphaned by killed campaign runs.

The engine tears its shared state down on every *survivable* exit path
— normal completion, failure, SIGINT/SIGTERM — but nothing survives
SIGKILL or a machine reset, which leaks **fault-injection state
directories** (``$TMPDIR/repro-faults-*``, see
:func:`repro.harness.faults.faults_from_env`): tiny, but they
accumulate one per killed chaos run.

:func:`reap_orphans` runs at the start of every engine run and sweeps
them, using the *owner PID* each directory records at creation time
(``owner.pid``): a directory whose owner is dead is provably orphaned
and safe to remove; one whose owner is alive belongs to a concurrent
campaign and is left alone. Directories with no readable owner stamp
(torn writes) are only reaped past a conservative age threshold, so the
sweep can never race a directory that another process is mid-creating.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
from pathlib import Path

from repro.harness.faults import STATE_DIR_PREFIX, STATE_PID_FILE
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: A fault-state dir missing its ``owner.pid`` stamp is reaped only
#: once it is at least this old — far beyond any creation race.
FAULT_STATE_UNKNOWN_OWNER_AGE = 600.0

_REG = obs_metrics.get_registry()
_M_REAPED = _REG.counter(
    "repro_reaped_total",
    "Orphaned resources reclaimed at startup",
    kind="fault-state",
)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError as exc:  # pragma: no cover - exotic kernels
        return exc.errno != errno.ESRCH
    return True


def _age_seconds(path: Path) -> float:
    try:
        return max(0.0, time.time() - path.stat().st_mtime)
    except OSError:
        return 0.0


def reap_orphan_fault_state(root: str | Path | None = None) -> list[str]:
    """Remove ``repro-faults-*`` state dirs whose owning process is dead.

    Returns the reaped directory paths. Directories missing their
    ``owner.pid`` stamp are kept until
    :data:`FAULT_STATE_UNKNOWN_OWNER_AGE` old.
    """
    base = Path(root) if root is not None else Path(tempfile.gettempdir())
    if not base.is_dir():
        return []
    reaped: list[str] = []
    try:
        candidates = sorted(base.glob(f"{STATE_DIR_PREFIX}*"))
    except OSError:
        return []
    for path in candidates:
        if not path.is_dir():
            continue
        try:
            owner = int((path / STATE_PID_FILE).read_text().strip())
        except (OSError, ValueError):
            owner = None
        if owner is not None:
            if _pid_alive(owner):
                continue
        elif _age_seconds(path) < FAULT_STATE_UNKNOWN_OWNER_AGE:
            continue
        try:
            for child in sorted(path.iterdir()):
                try:
                    child.unlink()
                except OSError:
                    pass
            path.rmdir()
        except OSError:
            continue
        reaped.append(str(path))
        _M_REAPED.inc()
        obs_trace.event("reap.fault-state", path=str(path), owner=owner)
    return reaped


def reap_orphans() -> dict[str, list[str]]:
    """Sweep every orphan class; called once per engine run.

    Cheap when there is nothing to do (one directory scan), and every
    failure mode is contained: an unreadable entry is skipped, never
    raised — startup hygiene must not be able to break a campaign.
    """
    return {"fault_state": reap_orphan_fault_state()}
