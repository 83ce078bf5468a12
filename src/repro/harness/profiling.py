"""One-cell cProfile capture for simulation campaigns.

Simulation cells run deep inside the execution engine — possibly on a
worker process — so ``python -m cProfile`` on the CLI entry point either
profiles only the supervisor or drowns the signal in pool machinery.
This module instead profiles *one matching cell* where it executes:

* ``REPRO_PROFILE=1`` (or ``all``) profiles the first cell that runs;
* ``REPRO_PROFILE=<substring>`` profiles the first cell whose label
  contains the substring (labels look like ``mix[...]/untangle``);
* ``python -m repro --cprofile [SUBSTRING] ...`` sets the same up from
  the command line.

The capture fires **once per campaign** even with parallel workers: the
first matching executor atomically claims a per-campaign sentinel file
(the supervisor's PID scopes it, which every forked/spawned worker
shares via ``os.getppid()``), so exactly one ``.pstats`` file appears
no matter how many workers race.

The stats land in ``profile-<cell>.pstats`` next to the result cache
directory (the cache dir's parent — typically the working directory),
or under ``REPRO_PROFILE_DIR`` when set. Read them with::

    python -m pstats profile-<cell>.pstats
    % sort cumtime
    % stats 20

(``sort tottime`` shows self-time — where the simulator actually burns
cycles; ``callers <func>`` walks up the call graph.)
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro.harness.settings import cache_dir_from_env

#: Which cell to profile: unset/empty = none, ``1``/``all`` = first cell,
#: anything else = first cell whose label contains the value.
PROFILE_ENV = "REPRO_PROFILE"

#: Where the ``.pstats`` file is written (optional override).
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"

_MATCH_ALL = ("1", "true", "yes", "on", "all")


def profile_request() -> str | None:
    """The active ``REPRO_PROFILE`` request, or ``None``."""
    raw = os.environ.get(PROFILE_ENV, "").strip()
    return raw or None


def _matches(request: str, label: str) -> bool:
    return request.lower() in _MATCH_ALL or request in label


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]+", "-", label).strip("-") or "cell"


def output_dir() -> Path:
    """Directory the ``.pstats`` file is written to.

    ``REPRO_PROFILE_DIR`` wins; otherwise the parent of the result cache
    directory (``REPRO_CACHE_DIR``), i.e. *beside* the cache, so the
    profile is not swept away with a cache wipe; otherwise the working
    directory.
    """
    explicit = os.environ.get(PROFILE_DIR_ENV, "").strip()
    if explicit:
        return Path(explicit)
    cache_dir = cache_dir_from_env()
    if cache_dir:
        return Path(cache_dir).parent
    return Path.cwd()


def _sentinel_path(root_pid: int) -> Path:
    return Path(tempfile.gettempdir()) / f".repro-profile-claim-{root_pid}"


def reset_claim() -> None:
    """Forget the calling campaign root's one-capture claim.

    The execution engine calls this at the start of every campaign so
    each ``run()`` (not each process lifetime) gets one capture.
    """
    try:
        _sentinel_path(os.getpid()).unlink()
    except OSError:
        pass


def _claim(worker_id: int | None) -> bool:
    """Atomically claim the one-capture-per-campaign sentinel.

    The sentinel is keyed by the campaign's root PID — ``os.getppid()``
    on a pool worker, ``os.getpid()`` in serial mode — so concurrent
    workers of one campaign race for a single O_EXCL creation, while a
    later campaign (different root PID) gets a fresh sentinel.
    """
    root_pid = os.getppid() if worker_id is not None else os.getpid()
    sentinel = _sentinel_path(root_pid)
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    except OSError:
        return True  # tmpdir trouble: profile anyway rather than silently not
    return True


def maybe_profile(
    label: str, thunk: Callable[[], Any], worker_id: int | None = None
) -> Any:
    """Run ``thunk``, under cProfile if it is this campaign's chosen cell.

    Returns ``thunk()``'s value either way; on capture, dumps
    ``profile-<label>.pstats`` into :func:`output_dir` and prints the
    path (with a reading hint) to stderr. The stats are dumped even if
    the cell raises, so a hung-then-interrupted cell still yields its
    profile.
    """
    request = profile_request()
    if request is None or not _matches(request, label) or not _claim(worker_id):
        return thunk()
    directory = output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"profile-{_slug(label)}.pstats"
    import cProfile

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(thunk)
    finally:
        profiler.dump_stats(path)
        from repro.obs import trace as obs_trace

        obs_trace.event("profile.capture", label=label, path=str(path))
        print(
            f"[profile] {label} -> {path}\n"
            f"[profile] read it with: python -m pstats {path} "
            "(then 'sort cumtime' + 'stats 20')",
            file=sys.stderr,
        )
