"""Engine settings: which execution engine a command line and an
environment ask for.

One rule holds for every setting: a value passed here (the CLI passes
its flags) wins, else the setting's ``REPRO_*`` variable, else the
default. :func:`engine_from_env` applies it, and both front ends call
it: the CLI (``repro.__main__.build_engine``) with its flags and
``.repro-cache`` as the default directory, the benchmark harness with
no flags and ``benchmarks/results/.cache``.

* ``jobs`` / ``REPRO_JOBS``: worker count (default 1 — the serial
  fallback); ``0`` means one worker per CPU.
* ``cache`` / ``REPRO_CACHE``: on/off switch for the on-disk result
  cache (default on).
* ``cache_dir`` / ``REPRO_CACHE_DIR``: the cache directory (falls back
  to ``default_cache_dir``; with no directory at all there is no cache).
* ``REPRO_JOURNAL``: an off spelling of the switch vocabulary disables
  the crash-recovery journal; an on spelling, like unset, means
  ``<cache-dir>/journal.jsonl`` whenever the result cache is in use;
  any other value is the journal's path. The journal group-commits
  :data:`~repro.harness.journal.DEFAULT_BATCH_ENTRIES` entries per
  fsync, a partial batch waiting at most
  :data:`~repro.harness.journal.DEFAULT_LINGER_SECONDS`.
* ``resume`` / ``REPRO_RESUME``: switch; replays journaled cells
  instead of re-running them (default off).
* ``precompute`` / ``REPRO_PRECOMPUTE``: switch for the precompute
  store (default on).
* ``REPRO_STORE_DIR``: the store's directory. Defaults to
  ``<cache-dir>/store`` even when the result cache is off, because the
  *result* cache and the *input* store are independent layers; with no
  directory at all there is no store.
* ``retries`` / ``REPRO_RETRIES``: retry budget per cell (default 1).
* ``timeout`` / ``REPRO_TIMEOUT``: per-cell deadline in seconds for
  parallel runs (default none; ``0`` also means none).
* ``heartbeat`` / ``REPRO_HEARTBEAT``: worker liveness heartbeat
  interval in seconds (default 1; ``0`` disables heartbeats).
* ``REPRO_FAULTS``: fault-injection spec for chaos runs (see
  :func:`repro.harness.faults.faults_from_env`).

The switches accept ``1``/``true``/``yes``/``on`` and
``0``/``false``/``no``/``off`` (:func:`switch_value`). A malformed value
raises :class:`~repro.errors.ConfigurationError` naming the variable,
the offending value and the accepted forms.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.exec import ExecutionEngine

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")

def switch_value(raw: str) -> bool | None:
    """``raw`` read as an on/off switch, or ``None`` if it is not one.

    ``1``/``true``/``yes``/``on`` are on and ``0``/``false``/``no``/
    ``off`` are off, ignoring case and surrounding blanks.
    """
    raw = raw.strip().lower()
    if raw in _TRUTHY:
        return True
    if raw in _FALSY:
        return False
    return None


def _switch(name: str, flag: bool | None, default: bool) -> bool:
    if flag is not None:
        return flag
    raw = os.environ.get(name, "")
    if not raw.strip():
        return default
    value = switch_value(raw)
    if value is None:
        raise ConfigurationError(
            f"{name}={raw!r} is not a recognized switch; "
            f"accepted: {'/'.join(_TRUTHY)} to enable, "
            f"{'/'.join(_FALSY)} to disable"
        )
    return value


def _number(
    name: str,
    flag: float | None,
    default: float | None,
    parse: Callable[[str], float],
    accepted: str,
) -> float | None:
    """A non-negative number: ``flag``, else variable ``name`` read by
    ``parse``, else ``default``."""
    if flag is not None:
        return flag
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = parse(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigurationError(f"{name}={raw!r} is not {accepted}")
    return value


def cache_dir_from_env(
    flag: str | Path | None = None, default: str | Path | None = None
) -> str | Path | None:
    """The campaign directory: ``flag``, else ``REPRO_CACHE_DIR``, else
    ``default``."""
    return flag or os.environ.get("REPRO_CACHE_DIR", "").strip() or default


def engine_from_env(
    default_cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    *,
    jobs: int | None = None,
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
    resume: bool | None = None,
    precompute: bool | None = None,
    retries: int | None = None,
    timeout: float | None = None,
    heartbeat: float | None = None,
) -> ExecutionEngine:
    """The engine these keyword flags and the environment ask for.

    A keyword left at ``None`` falls back to its ``REPRO_*`` variable,
    then to its default (see the module docstring for the table).
    """
    # Imported here: repro.harness.exec re-exports this function.
    from repro.harness.exec import ExecutionEngine, ResultCache
    from repro.harness.faults import faults_from_env
    from repro.harness.journal import (
        DEFAULT_BATCH_ENTRIES,
        DEFAULT_LINGER_SECONDS,
        RunJournal,
    )
    from repro.harness.store import PRECOMPUTE_ENV, STORE_DIR_ENV, PrecomputeStore

    jobs = _number(
        "REPRO_JOBS",
        jobs,
        1,
        int,
        "a non-negative integer (1 = serial, N = N workers, 0 = one per CPU)",
    )
    retries = _number(
        "REPRO_RETRIES",
        retries,
        1,
        int,
        "a non-negative integer retry budget per cell",
    )
    # A deadline or beat interval of 0, from a flag or a variable, is off.
    seconds = "a non-negative number of seconds (0 = disabled)"
    timeout = _number("REPRO_TIMEOUT", timeout, None, float, seconds) or None
    heartbeat = _number("REPRO_HEARTBEAT", heartbeat, 1.0, float, seconds) or None
    resume = _switch("REPRO_RESUME", resume, default=False)
    directory = cache_dir_from_env(cache_dir, default_cache_dir)
    cached = _switch("REPRO_CACHE", cache, default=True) and directory is not None

    raw_journal = os.environ.get("REPRO_JOURNAL", "").strip()
    journal_switch = switch_value(raw_journal)
    journal_path: str | Path | None = None
    if raw_journal and journal_switch is None:
        journal_path = raw_journal
    elif journal_switch is not False and cached:
        journal_path = Path(directory) / "journal.jsonl"

    store: PrecomputeStore | None = None
    if _switch(PRECOMPUTE_ENV, precompute, default=True):
        # The store is allowed even when the result cache is off: it
        # memoizes cell *inputs*, not results, so "always re-simulate"
        # semantics are preserved either way.
        explicit_dir = os.environ.get(STORE_DIR_ENV)
        if explicit_dir:
            store = PrecomputeStore(explicit_dir)
        elif directory is not None:
            store = PrecomputeStore(Path(directory) / "store")

    return ExecutionEngine(
        jobs=jobs or os.cpu_count() or 1,
        cache=ResultCache(directory) if cached else None,
        journal=(
            RunJournal(
                journal_path,
                batch_entries=DEFAULT_BATCH_ENTRIES,
                linger_seconds=DEFAULT_LINGER_SECONDS,
            )
            if journal_path is not None
            else None
        ),
        resume=resume,
        faults=faults_from_env(),
        progress=progress,
        store=store,
        retries=retries,
        timeout=timeout,
        heartbeat=heartbeat,
    )


@contextmanager
def environ_restored(*names: str) -> Iterator[None]:
    """Put the variables ``names`` back as they were on every exit, so
    what a run hands its workers does not outlive the run."""
    saved = {name: os.environ.get(name) for name in names}
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
