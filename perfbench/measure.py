"""Child-process measurement and output checks.

Every measured command runs as a child process with stdout and stderr
sent to files, an environment scrubbed of ``REPRO_*`` knobs and a pinned
``PYTHONHASHSEED``. Its wall time comes from the parent's clock; its CPU
time and peak RSS come from ``wait4``, which folds in every descendant
the child reaped (the engine's workers), so CPU is the whole tree's
user+sys and RSS is the largest resident set of any process in it.

While a child runs, a :class:`HostProbe` thread in the parent stops the
child's process group every 0.2 s, times a fixed slice of interpreter
and NumPy work and lets the group continue. The host the benchmark was
set up on is a shared 2-vCPU VM whose per-instruction speed drifts by up
to a third over minutes; the probe slows down with it, so scaling a time
by ``REFERENCE_PROBE_S / mean probe`` removes most of that drift.
Because the measured processes are stopped while the probe runs, how
hard they load the vCPUs and caches does not change the probe's speed,
and so a change to the program cannot move its own scale factor. The
time the group spends stopped is taken out of its wall time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants so :func:`run_child` can reap them.

    A worker that outlives its supervisor would otherwise be re-parented
    to init, out of reach of the wait that proves every process ended.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_env(root: Path) -> dict[str, str]:
    """The inherited environment minus ``REPRO_*``, with pinned hashing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def load_average() -> float:
    """The host's 1-minute load average."""
    return os.getloadavg()[0]


def steal_seconds() -> float:
    """CPU time the hypervisor has taken from this guest since boot.

    Summed over CPUs, from the ``steal`` column of ``/proc/stat``; 0 where
    the kernel does not report it.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


#: Seconds between probes while a child runs.
PROBE_PERIOD_S = 0.2

#: Probe time that host-speed-scaled figures refer to: a fixed value near
#: the probe's usual time on the reference host (iteration means of
#: 1.4-4.3 ms, median 2.4 ms), so scaled figures stay close to raw ones.
REFERENCE_PROBE_S = 0.003

_PROBE_ARRAY = numpy.random.default_rng(0).random(4096)


def probe_once() -> float:
    """Thread CPU time of one fixed slice of interpreter and NumPy work."""
    start = time.thread_time()
    table: dict[int, int] = {}
    for i in range(4000):
        table[i & 255] = table.get(i & 255, 0) + len(str(i))
    values = _PROBE_ARRAY
    for _ in range(60):
        values = numpy.sort(values * 1.0001)
    return time.thread_time() - start


class HostProbe:
    """Samples the host's speed on a thread for the life of a ``with``.

    Each sample stops process group ``pgid``, runs :func:`probe_once`
    twice (the first reloads the caches the group left cold) and keeps
    the second time, then continues the group. The first sample is taken
    at once, so even a short child gets one.
    """

    def __init__(self, pgid: int):
        self.pgid = pgid
        self.samples: list[float] = []
        #: (start, end) perf_counter times of each pause of a live group.
        self.pauses: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            start = time.perf_counter()
            stopped = _signal_group(self.pgid, signal.SIGSTOP)
            try:
                probe_once()
                self.samples.append(probe_once())
            finally:
                if stopped:
                    _signal_group(self.pgid, signal.SIGCONT)
                    self.pauses.append((start, time.perf_counter()))
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def paused_before(self, end: float) -> float:
        """Seconds the group spent stopped before perf_counter time ``end``."""
        return sum(min(stop, end) - start for start, stop in self.pauses if start < end)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def host_scale(probes: list[float]) -> float:
    """Factor that scales a time measured while ``probes`` ran to the reference.

    The probes are spread evenly over the measured interval, so their mean
    is the host's average slowness over it, which is what stretched the
    interval; a median would follow whichever speed lasted longest.
    """
    return REFERENCE_PROBE_S / statistics.fmean(probes)


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    load_before: float
    load_after: float
    steal_s: float
    stdout: bytes
    stderr: str
    #: Probe times taken while the child ran (at least one).
    probes: list[float] = field(default_factory=list)


def run_child(
    argv: list[str],
    *,
    cwd: Path,
    env: dict[str, str],
    log_stem: Path,
    timeout: float,
) -> ChildRun:
    """Run ``argv`` to completion and measure it.

    stdout/stderr go to ``<log_stem>.out``/``.err``. The child leads its
    own process group; past ``timeout`` the whole group is killed. Once
    the child has exited, any straggler left in its group is killed and
    reaped, so nothing the run started outlives it.
    """
    out_path = log_stem.with_suffix(".out")
    err_path = log_stem.with_suffix(".err")
    load_before = load_average()
    steal_before = steal_seconds()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            with HostProbe(proc.pid) as probe:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
        finally:
            timer.cancel()
    wall = end - start - probe.paused_before(end)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    _reap_stragglers()
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        load_before=load_before,
        load_after=load_average(),
        steal_s=steal_seconds() - steal_before,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(errors="replace"),
        probes=probe.samples,
    )


def _signal_group(pgid: int, signum: int) -> bool:
    """Send ``signum`` to a process group; False when the group is gone."""
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _kill_group(pgid: int) -> None:
    _signal_group(pgid, signal.SIGKILL)


def _reap_stragglers() -> None:
    """Wait for every remaining child (adopted orphans included)."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Telemetry:
    """The counters of the CLI's ``--telemetry`` block."""

    total: int
    hit: int
    computed: int
    replayed: int
    failed: int
    chunks: int
    steals: int


_CELLS = re.compile(r"^\s*cells:\s+(\d+) \((.*)\)\s*$", re.MULTILINE)
_SCHEDULING = re.compile(
    r"^\s*scheduling:\s+(\d+) chunks dispatched .*?, (\d+) steals\s*$",
    re.MULTILINE,
)


def _count(pattern: str, text: str) -> int:
    match = re.search(r"(\d+) " + pattern, text)
    return int(match.group(1)) if match else 0


def parse_telemetry(stderr: str) -> Telemetry | None:
    """Parse the last ``Execution telemetry`` block of a CLI's stderr."""
    cells = list(_CELLS.finditer(stderr))
    if not cells:
        return None
    total, breakdown = cells[-1].groups()
    scheduling = list(_SCHEDULING.finditer(stderr))
    chunks, steals = scheduling[-1].groups() if scheduling else (0, 0)
    return Telemetry(
        total=int(total),
        hit=_count("cache hits", breakdown),
        computed=_count("simulated", breakdown),
        replayed=_count("journal replays", breakdown),
        failed=_count("failed", breakdown),
        chunks=int(chunks),
        steals=int(steals),
    )


def telemetry_problems(
    telemetry: Telemetry | None, cells: int, cold: bool
) -> list[str]:
    """Violations of the accounting invariant and the workload's shape."""
    if telemetry is None:
        return ["no telemetry block on stderr"]
    t = telemetry
    problems = []
    if t.computed + t.hit + t.replayed + t.failed != t.total:
        problems.append(
            f"telemetry invariant broken: {t.computed} computed + {t.hit} hit"
            f" + {t.replayed} replayed + {t.failed} failed != {t.total} total"
        )
    if t.total != cells:
        problems.append(f"{t.total} cells, expected {cells}")
    if t.failed:
        problems.append(f"{t.failed} failed cells")
    if cold and (t.computed != t.total or t.hit or t.replayed):
        problems.append(
            f"cold run reused results: {t.hit} hits, {t.replayed} replays"
        )
    if not cold and (t.hit != t.total or t.computed):
        problems.append(
            f"warm replay simulated {t.computed} of {t.total} cells"
            f" ({t.hit} hits)"
        )
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_problems(stdout: bytes, expected: str) -> list[str]:
    actual = sha256(stdout)
    if actual != expected:
        return [f"stdout sha256 {actual[:12]}... != expected {expected[:12]}..."]
    return []


_SCENARIO_ROW = re.compile(r"^mix (\d+)\s+((?:\s*\d+\.\d{3}x){3})\s*$", re.MULTILINE)


def scenario_problems(stdout: bytes) -> list[str]:
    """Shape check of a held-back Table 6 grid's scenario rendering.

    Four mix rows, three scheme columns, the static column exactly
    ``1.000x`` (it is the normalization baseline), every speedup positive.
    """
    rows = _SCENARIO_ROW.findall(stdout.decode(errors="replace"))
    if [int(mix) for mix, _ in rows] != [1, 2, 3, 4]:
        return [f"scenario output has mix rows {[m for m, _ in rows]}, expected 1-4"]
    problems = []
    for mix, columns in rows:
        static, *others = [float(v) for v in re.findall(r"(\d+\.\d{3})x", columns)]
        if static != 1.0 or min(others) <= 0.0:
            problems.append(f"mix {mix} speedups {columns.split()} are malformed")
    return problems


_LEAK = re.compile(r"Average per-assessment leakage reduction: (\d+)%")


def parse_leak_reduction(stdout: bytes) -> float | None:
    """Table 6's average per-assessment reduction (percent), if rendered."""
    match = _LEAK.search(stdout.decode(errors="replace"))
    return float(match.group(1)) if match else None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
