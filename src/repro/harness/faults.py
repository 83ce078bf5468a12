"""Fault injection for the execution engine (chaos testing).

The recovery paths of the campaign runner — worker crash, worker hang,
corrupt cache entry, interrupted campaign, full disk, stalled progress —
are only trustworthy if they are *exercised*. A :class:`FaultPlan`
injects those failures on demand:

* ``crash=<substr>`` — a worker (or the serial runner's process) whose
  cell label contains ``substr`` hard-exits (``os._exit``), simulating
  a segfault or OOM kill mid-cell.
* ``poison=<substr>`` — like ``crash`` but *deterministic*: the matching
  cell crashes its worker on **every** attempt (the one-shot state dir
  is ignored), simulating a poison cell that can never complete. The
  supervisor must exhaust the retry budget, quarantine the cell as
  ``poisoned``, and let the rest of the campaign finish.
* ``hang=<substr>`` — the matching cell sleeps past any reasonable
  deadline, simulating a stuck simulation; the supervisor must kill
  and respawn the worker.
* ``heartbeat-stall=<substr>`` — the matching cell stalls for
  ``stall-seconds`` (default 30) *without advancing the progress
  counter*, while the worker's heartbeat thread keeps beating: the
  process looks alive, the cell is not. Exercises the supervisor's
  ``worker.unresponsive`` detection and early stall kill.
* ``slow=<substr>`` — the matching cell takes ``slow-seconds`` (default
  2) longer, sleeping in small increments that *do* advance the
  progress counter: slow but alive. The supervisor must not kill it,
  however tight its deadline, because heartbeats prove progress.
* ``corrupt=<substr>`` — the engine garbles the cache entry it just
  wrote for the matching cell, simulating torn writes/bit rot; the next
  read must quarantine it instead of trusting it.
* ``kill-worker=<n>`` — worker ``n`` dies the first time it receives a
  task, simulating an infant-mortality worker.
* ``io-error=<subsystem>`` — the named I/O subsystem (``journal``,
  ``cache``, or ``store``) raises ``EIO`` on its next write, simulating
  a failing disk; the engine must *degrade* that subsystem (journal →
  no-resume warning, cache/store → compute-only) instead of aborting
  the campaign.
* ``enospc=<subsystem>`` — same seams, but ``ENOSPC`` (disk full).
* ``journal-batch-crash=<n>`` — the supervising process hard-exits at
  the start of journal group-commit flush number ``n`` (1-based),
  *before* the batch's buffered entries reach the kernel: the
  crash window between a batch's buffered write and its fsync/ack.
  Cells in that batch were finished but never acked; ``--resume`` must
  re-attempt exactly them, bit-identically.

Each fault fires at most once when a ``state`` directory is set (except
``poison``, which always fires by design): the first process to fire it
atomically creates a marker file there, so a retried attempt (possibly
in a *different*, respawned worker process) succeeds and the test can
assert full recovery. Without a state directory a fault fires every
time it matches — useful for asserting that the retry budget is
eventually exhausted.

``REPRO_FAULTS`` exposes the same plans to manual chaos runs, e.g.::

    REPRO_FAULTS="crash=untangle" REPRO_JOBS=4 python -m repro \
        --profile test --telemetry mix 1

(:func:`faults_from_env` creates a fresh one-shot state directory per
run unless the spec pins one with ``state=<dir>``. Auto-created state
directories are stamped with the owner's PID, removed on engine
teardown via :func:`release_fault_state` — with an ``atexit`` net — and
swept by :mod:`repro.harness.reaper` if the owning process was killed
before it could clean up.)
"""

from __future__ import annotations

import atexit
import errno
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.liveness import progress_beat

#: Exit codes used by injected hard-exits (recognizable in supervisor logs).
CRASH_EXIT_CODE = 13
KILL_WORKER_EXIT_CODE = 17

#: I/O seams that accept injected ``io-error``/``enospc`` faults.
IO_SUBSYSTEMS = ("journal", "cache", "store")

#: Name of the owner-PID stamp inside an auto-created state directory
#: (read by :mod:`repro.harness.reaper` to detect orphans).
STATE_PID_FILE = "owner.pid"

#: Prefix of auto-created one-shot state directories in the system
#: temp directory.
STATE_DIR_PREFIX = "repro-faults-"

_SPEC_HELP = (
    "accepted clauses (separated by ';'): crash=<label-substr>, "
    "poison=<label-substr>, hang=<label-substr>, "
    "heartbeat-stall=<label-substr>, slow=<label-substr>, "
    "corrupt=<label-substr>, kill-worker=<int>, "
    "io-error=<journal|cache|store>, enospc=<journal|cache|store>, "
    "journal-batch-crash=<int>, "
    "hang-seconds=<float>, stall-seconds=<float>, slow-seconds=<float>, "
    "state=<dir>"
)


@dataclass(frozen=True)
class FaultPlan:
    """An injectable failure policy, shared with worker processes."""

    crash_cells: tuple[str, ...] = ()
    #: Cells that crash their worker on *every* attempt (never one-shot).
    poison_cells: tuple[str, ...] = ()
    hang_cells: tuple[str, ...] = ()
    #: Cells that stall without progress while heartbeats keep flowing.
    stall_cells: tuple[str, ...] = ()
    #: Cells that run slow but keep advancing the progress counter.
    slow_cells: tuple[str, ...] = ()
    corrupt_cells: tuple[str, ...] = ()
    kill_workers: tuple[int, ...] = ()
    #: Subsystems whose next write raises ``EIO`` (``io-error=...``).
    io_error_subsystems: tuple[str, ...] = ()
    #: Subsystems whose next write raises ``ENOSPC`` (``enospc=...``).
    enospc_subsystems: tuple[str, ...] = ()
    #: Hard-exit the supervising process at the start of journal flush
    #: number N (1-based) — the group-commit crash window. 0 = off.
    journal_batch_crash: int = 0
    #: How long an injected hang sleeps (must exceed the engine timeout).
    hang_seconds: float = 3600.0
    #: How long a ``heartbeat-stall`` freezes progress before resuming.
    stall_seconds: float = 30.0
    #: Extra runtime of a ``slow`` cell (progress beats throughout).
    slow_seconds: float = 2.0
    #: Marker directory making each fault fire exactly once across all
    #: processes; ``None`` means faults fire on every match.
    state_dir: str | None = None

    # ------------------------------------------------------------------
    def _fire_once(self, fault_id: str) -> bool:
        """True if this call wins the right to fire ``fault_id``.

        With a state directory, atomically claims a marker file so the
        fault fires exactly once across the whole process tree; without
        one, always fires. A state directory that was cleaned up (engine
        teardown of a previous run) is recreated, so each run re-arms
        the one-shot faults — matching the fresh-directory-per-run
        semantics of :func:`faults_from_env`.
        """
        if self.state_dir is None:
            return True
        digest = hashlib.sha256(fault_id.encode("utf-8")).hexdigest()[:16]
        marker = Path(self.state_dir) / f"fired-{digest}"
        for _ in range(2):
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            except FileNotFoundError:
                try:
                    os.makedirs(self.state_dir, exist_ok=True)
                except OSError:
                    return True
                continue
            except OSError:
                return True
            os.close(fd)
            return True
        return True

    @staticmethod
    def _matches(label: str, patterns: tuple[str, ...]) -> str | None:
        for pattern in patterns:
            if pattern in label:
                return pattern
        return None

    # ------------------------------------------------------------------
    # Hooks called from inside the executing process (worker or serial).
    def on_cell_start(self, label: str, worker_id: int | None = None) -> None:
        """Apply execution faults before a cell executes."""
        if worker_id is not None and worker_id in self.kill_workers:
            if self._fire_once(f"kill-worker:{worker_id}"):
                os._exit(KILL_WORKER_EXIT_CODE)
        if self._matches(label, self.poison_cells) is not None:
            # Deterministic by design: a poison cell crashes every
            # attempt, so the circuit breaker (not the retry budget's
            # luck) has to end it.
            os._exit(CRASH_EXIT_CODE)
        pattern = self._matches(label, self.crash_cells)
        if pattern is not None and self._fire_once(f"crash:{pattern}"):
            os._exit(CRASH_EXIT_CODE)
        pattern = self._matches(label, self.hang_cells)
        if pattern is not None and self._fire_once(f"hang:{pattern}"):
            time.sleep(self.hang_seconds)
        pattern = self._matches(label, self.stall_cells)
        if pattern is not None and self._fire_once(f"heartbeat-stall:{pattern}"):
            # No progress beats: the heartbeat thread keeps reporting a
            # frozen counter, which is exactly what the supervisor's
            # unresponsive detection must catch.
            time.sleep(self.stall_seconds)
        pattern = self._matches(label, self.slow_cells)
        if pattern is not None and self._fire_once(f"slow:{pattern}"):
            deadline = time.monotonic() + self.slow_seconds
            while time.monotonic() < deadline:
                time.sleep(0.05)
                progress_beat()

    # ------------------------------------------------------------------
    # Hooks called from the supervising (main) process.
    def should_corrupt(self, label: str) -> bool:
        pattern = self._matches(label, self.corrupt_cells)
        return pattern is not None and self._fire_once(f"corrupt:{pattern}")

    def check_io(self, subsystem: str) -> None:
        """Raise the injected I/O error for ``subsystem``, if armed.

        Called by the engine immediately before a real write on the
        journal / result-cache / precompute-store seam. Raises plain
        ``OSError`` with ``EIO`` or ``ENOSPC`` — indistinguishable from
        the genuine failure — so the degraded-mode handling under test
        is the same code path production errors take.
        """
        if subsystem in self.io_error_subsystems and self._fire_once(
            f"io-error:{subsystem}"
        ):
            raise OSError(
                errno.EIO, os.strerror(errno.EIO), f"<injected:{subsystem}>"
            )
        if subsystem in self.enospc_subsystems and self._fire_once(
            f"enospc:{subsystem}"
        ):
            raise OSError(
                errno.ENOSPC,
                os.strerror(errno.ENOSPC),
                f"<injected:{subsystem}>",
            )

    def on_journal_flush(self, flush_number: int) -> None:
        """Crash the process at the start of the armed flush, if any.

        Called by :class:`~repro.harness.journal.RunJournal` at the top
        of each group-commit flush, while the batch's entries are still
        in the user-space buffer — ``os._exit`` here loses exactly the
        unacked batch, which is what the resume contract must absorb.
        """
        if (
            self.journal_batch_crash
            and flush_number >= self.journal_batch_crash
            and self._fire_once("journal-batch-crash")
        ):
            os._exit(CRASH_EXIT_CODE)


def _subsystem(value: str, kind: str) -> str:
    if value not in IO_SUBSYSTEMS:
        raise ConfigurationError(
            f"{kind} needs one of {'/'.join(IO_SUBSYSTEMS)}, got {value!r}; "
            f"{_SPEC_HELP}"
        )
    return value


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    crash: list[str] = []
    poison: list[str] = []
    hang: list[str] = []
    stall: list[str] = []
    slow: list[str] = []
    corrupt: list[str] = []
    kill: list[int] = []
    io_error: list[str] = []
    enospc: list[str] = []
    journal_batch_crash = 0
    hang_seconds = 3600.0
    stall_seconds = 30.0
    slow_seconds = 2.0
    state_dir: str | None = None
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, value = clause.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ConfigurationError(
                f"malformed fault clause {clause!r}; {_SPEC_HELP}"
            )
        if key == "crash":
            crash.append(value)
        elif key == "poison":
            poison.append(value)
        elif key == "hang":
            hang.append(value)
        elif key == "heartbeat-stall":
            stall.append(value)
        elif key == "slow":
            slow.append(value)
        elif key == "corrupt":
            corrupt.append(value)
        elif key == "kill-worker":
            try:
                kill.append(int(value))
            except ValueError:
                raise ConfigurationError(
                    f"kill-worker needs an integer worker id, got {value!r}; "
                    f"{_SPEC_HELP}"
                )
        elif key == "io-error":
            io_error.append(_subsystem(value, "io-error"))
        elif key == "enospc":
            enospc.append(_subsystem(value, "enospc"))
        elif key == "journal-batch-crash":
            try:
                journal_batch_crash = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"journal-batch-crash needs a 1-based flush number, "
                    f"got {value!r}; {_SPEC_HELP}"
                )
            if journal_batch_crash < 1:
                raise ConfigurationError(
                    f"journal-batch-crash needs a 1-based flush number, "
                    f"got {value!r}; {_SPEC_HELP}"
                )
        elif key in ("hang-seconds", "stall-seconds", "slow-seconds"):
            try:
                seconds = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"{key} needs a number, got {value!r}; {_SPEC_HELP}"
                )
            if key == "hang-seconds":
                hang_seconds = seconds
            elif key == "stall-seconds":
                stall_seconds = seconds
            else:
                slow_seconds = seconds
        elif key == "state":
            state_dir = value
        else:
            raise ConfigurationError(
                f"unknown fault kind {key!r}; {_SPEC_HELP}"
            )
    return FaultPlan(
        crash_cells=tuple(crash),
        poison_cells=tuple(poison),
        hang_cells=tuple(hang),
        stall_cells=tuple(stall),
        slow_cells=tuple(slow),
        corrupt_cells=tuple(corrupt),
        kill_workers=tuple(kill),
        io_error_subsystems=tuple(io_error),
        enospc_subsystems=tuple(enospc),
        journal_batch_crash=journal_batch_crash,
        hang_seconds=hang_seconds,
        stall_seconds=stall_seconds,
        slow_seconds=slow_seconds,
        state_dir=state_dir,
    )


# ----------------------------------------------------------------------
# Auto-created state-directory lifecycle
# ----------------------------------------------------------------------
#: State directories this process created via :func:`faults_from_env`
#: and is responsible for removing (engine teardown + atexit net).
_AUTO_STATE_DIRS: set[str] = set()
_CLEANUP_REGISTERED = False


def _cleanup_auto_state_dirs() -> None:
    for directory in list(_AUTO_STATE_DIRS):
        shutil.rmtree(directory, ignore_errors=True)
        _AUTO_STATE_DIRS.discard(directory)


def release_fault_state(plan: FaultPlan | None) -> None:
    """Remove ``plan``'s state directory if this process auto-created it.

    Called by the engine on run teardown so one-shot chaos runs do not
    leak a ``repro-faults-*`` directory per campaign; explicit
    ``state=<dir>`` directories are the caller's property and are left
    alone. Idempotent. The ``atexit`` net covers plans that never reach
    an engine run, and :mod:`repro.harness.reaper` covers processes
    killed before either fires.
    """
    if plan is None or plan.state_dir is None:
        return
    if plan.state_dir in _AUTO_STATE_DIRS:
        # Membership is kept: _fire_once recreates the directory if the
        # plan is run again, and the atexit net then sweeps that too.
        shutil.rmtree(plan.state_dir, ignore_errors=True)


def faults_from_env() -> FaultPlan | None:
    """The ``REPRO_FAULTS`` plan, if any, with a one-shot state dir.

    A state directory is created automatically (unless the spec pins
    one) so each fault in a manual chaos run fires once and the run can
    then *recover* — the scenario worth rehearsing. The directory is
    stamped with this process's PID and removed on engine teardown (or
    interpreter exit); a SIGKILL'd run's leftover is swept by
    :func:`repro.harness.reaper.reap_orphans` on the next start.
    """
    global _CLEANUP_REGISTERED
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    plan = parse_fault_spec(spec)
    if plan.state_dir is None:
        state_dir = tempfile.mkdtemp(prefix=STATE_DIR_PREFIX)
        try:
            (Path(state_dir) / STATE_PID_FILE).write_text(str(os.getpid()))
        except OSError:
            pass
        _AUTO_STATE_DIRS.add(state_dir)
        if not _CLEANUP_REGISTERED:
            atexit.register(_cleanup_auto_state_dirs)
            _CLEANUP_REGISTERED = True
        plan = FaultPlan(
            crash_cells=plan.crash_cells,
            poison_cells=plan.poison_cells,
            hang_cells=plan.hang_cells,
            stall_cells=plan.stall_cells,
            slow_cells=plan.slow_cells,
            corrupt_cells=plan.corrupt_cells,
            kill_workers=plan.kill_workers,
            io_error_subsystems=plan.io_error_subsystems,
            enospc_subsystems=plan.enospc_subsystems,
            journal_batch_crash=plan.journal_batch_crash,
            hang_seconds=plan.hang_seconds,
            stall_seconds=plan.stall_seconds,
            slow_seconds=plan.slow_seconds,
            state_dir=state_dir,
        )
    return plan
