"""Cross-cell precompute store: shared workload traces + Rmax artifacts.

Campaign wall-time after the batched kernel (PR 3) is dominated by
*redundant cross-cell work*: ``run_mix_scheme`` regenerates the identical
``(spec, crypto, scale, seed)`` workload trace for every scheme the mix
is simulated under, and every worker process re-runs the Dinkelbach
solver behind Untangle's rate table — work the paper explicitly models
as *precomputed* artifacts consumed at runtime (Section 5.3.4).

This module is the content-addressed store for those artifacts:

* **Workload traces** — the numpy arrays behind one
  :class:`~repro.workloads.workload.BuiltWorkload` (addresses,
  annotation masks, stall cycles), keyed by the full composition inputs
  and stored under ``<store-dir>/traces/``: arrays are ``.npy`` files
  attached with ``np.load(mmap_mode="r")`` — every process mapping the
  same file shares one copy in the page cache, so
  :class:`~repro.harness.exec.ExecutionEngine` workers attach
  **zero-copy** whether they were forked or spawned.

* **Rmax tables** — a checksummed JSON artifact per channel-model key
  (``<store-dir>/rmax/``), consumed by the keyed memoizer in
  :mod:`repro.schemes.untangle` so a warm campaign performs zero
  Dinkelbach solves. (The process-level memoizer itself lives with
  the scheme; this module only persists/loads the solved entries.)

Both stores are **bit-identical** to the regenerate path: arrays are
stored raw (dtype + bytes, checksummed) and the Rmax entries round-trip
through JSON, which is exact for Python floats. Corrupt artifacts are
quarantined with the result cache's ``*.corrupt`` convention and
recomputed.

The *active* store is process-global (:func:`get_active_store`): the
execution engine makes its own store — or none — the active one for
the duration of a run (:func:`store_scope`) and exports
``REPRO_STORE_DIR`` so worker processes — fork or spawn — resolve the
same store. ``REPRO_PRECOMPUTE=off`` (or ``--no-precompute-store``)
builds an engine without a store, which forces the legacy in-process
build path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: ``on`` (default) enables the precompute store; ``off`` forces the
#: legacy build-everything-in-process path (read by
#: :func:`repro.harness.settings.engine_from_env`).
PRECOMPUTE_ENV = "REPRO_PRECOMPUTE"
#: Directory of the store: an explicit setting, and how a running
#: engine hands its store to spawned workers (:func:`store_scope`).
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Bump when the trace layout changes incompatibly; old entries are then
#: quarantined instead of misread.
STORE_FORMAT_VERSION = 1

_REG = obs_metrics.get_registry()
_M_STORE = {
    (kind, outcome): _REG.counter(
        "repro_store_requests_total",
        "Precompute-store lookups by artifact kind and outcome",
        kind=kind,
        outcome=outcome,
    )
    for kind in ("trace", "rmax")
    for outcome in ("hit", "miss", "quarantined")
}
_M_BYTES = _REG.counter(
    "repro_store_bytes_total",
    "Bytes served zero-copy from the trace store",
    kind="trace",
)


def _canonical(token: dict[str, Any]) -> str:
    return json.dumps(token, sort_keys=True, separators=(",", ":"))


def store_digest(token: dict[str, Any]) -> str:
    """Deterministic content hash identifying one precomputed artifact."""
    return hashlib.sha256(_canonical(token).encode("utf-8")).hexdigest()


def _array_checksum(array: np.ndarray) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).data).hexdigest()


# ----------------------------------------------------------------------
# Tokens (the key schema; see docs/performance.md)
# ----------------------------------------------------------------------
def workload_token(
    spec: str, crypto: str, scale, seed: int, secret: int
) -> dict[str, Any]:
    """Identity of one composed workload trace.

    ``timing_jitter`` is deliberately absent: jitter perturbs the *core
    timing model* at assembly, never the composed arrays.
    """
    return {
        "kind": "workload-trace",
        "format": STORE_FORMAT_VERSION,
        "spec": spec,
        "crypto": crypto,
        "scale": dataclasses.asdict(scale),
        "seed": seed,
        "secret": secret,
    }


def spec_stream_token(
    benchmark: str, instructions: int, lines_per_mb: int, seed: int
) -> dict[str, Any]:
    """Identity of one standalone SPEC stream (sensitivity study)."""
    return {
        "kind": "spec-stream",
        "format": STORE_FORMAT_VERSION,
        "benchmark": benchmark,
        "instructions": instructions,
        "lines_per_mb": lines_per_mb,
        "seed": seed,
    }


def rmax_token(
    model, capacity: int, solver_iterations: int, solver_seed: int
) -> dict[str, Any]:
    """Identity of one solved Rmax table (full channel-model parameters)."""
    return {
        "kind": "rmax-table",
        "format": STORE_FORMAT_VERSION,
        "model": {
            "cooldown": model.cooldown,
            "resolution": model.resolution,
            "max_duration": model.max_duration,
            # Lists, not tuples: the token must compare equal to its own
            # JSON round-trip (the on-disk artifact stores it verbatim).
            "delay": [
                [int(v), p] for v, p in sorted(model.delay.items())
            ],
        },
        "capacity": capacity,
        "solver_iterations": solver_iterations,
        "solver_seed": solver_seed,
    }


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class PrecomputeStore:
    """Content-addressed store of precomputed campaign artifacts.

    ``directory`` is the store root. A trace entry is
    ``traces/<digest[:2]>/<digest>/`` holding ``meta.json`` (array
    names, dtypes, shapes, checksums, and the full key token for on-disk
    debuggability) plus one ``<name>.npy`` per array, attached via
    ``mmap``; Rmax artifacts are checksummed JSON files under ``rmax/``.
    Entries are written atomically (temp file or directory +
    ``os.replace``) so concurrent campaigns can share one store
    directory safely.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._attached: dict[str, dict[str, np.ndarray]] = {}
        self._rmax_cache: dict[str, list[dict[str, Any]]] = {}

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return f"file:{self.directory}"

    # ------------------------------------------------------------------
    # Trace arrays
    # ------------------------------------------------------------------
    def trace_arrays(
        self,
        token: dict[str, Any],
        builder: Callable[[], dict[str, np.ndarray]],
    ) -> dict[str, np.ndarray]:
        """The named arrays for ``token``, building at most once per store.

        A hit attaches a zero-copy mmap view; a miss runs ``builder``
        and persists its arrays for every other process of the
        campaign. Served arrays are read-only; the round-trip is
        byte-exact (checksummed on first attach).
        """
        digest = store_digest(token)
        cached = self._attached.get(digest)
        if cached is not None:
            _M_STORE[("trace", "hit")].inc()
            return cached
        loaded = self._load_trace(digest)
        if loaded is not None:
            _M_STORE[("trace", "hit")].inc()
            _M_BYTES.inc(sum(a.nbytes for a in loaded.values()))
            self._attached[digest] = loaded
            return loaded
        _M_STORE[("trace", "miss")].inc()
        arrays = builder()
        stored = self._store_trace(digest, token, arrays)
        self._attached[digest] = stored
        return stored

    def has_trace(self, token: dict[str, Any]) -> bool:
        digest = store_digest(token)
        return digest in self._attached or self._load_trace(digest) is not None

    def _trace_entry(self, digest: str) -> Path:
        return self.directory / "traces" / digest[:2] / digest

    def _quarantine_trace(self, entry: Path) -> None:
        _M_STORE[("trace", "quarantined")].inc()
        obs_trace.event("store.quarantine", kind="trace", path=str(entry))
        target = entry.with_name(entry.name + ".corrupt")
        try:
            if target.exists():
                shutil.rmtree(target, ignore_errors=True)
            os.replace(entry, target)
        except OSError:
            shutil.rmtree(entry, ignore_errors=True)

    def _load_trace(self, digest: str) -> dict[str, np.ndarray] | None:
        entry = self._trace_entry(digest)
        try:
            meta = json.loads((entry / "meta.json").read_text())
        except OSError:
            return None  # genuinely absent — a plain miss
        except ValueError:
            self._quarantine_trace(entry)
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("format") != STORE_FORMAT_VERSION
            or not isinstance(meta.get("arrays"), dict)
        ):
            self._quarantine_trace(entry)
            return None
        import numpy as np

        arrays: dict[str, np.ndarray] = {}
        for name, spec in meta["arrays"].items():
            try:
                array = np.load(entry / f"{name}.npy", mmap_mode="r")
            except (OSError, ValueError):
                self._quarantine_trace(entry)
                return None
            if (
                str(array.dtype) != spec.get("dtype")
                or list(array.shape) != spec.get("shape")
                or _array_checksum(array) != spec.get("sha256")
            ):
                self._quarantine_trace(entry)
                return None
            arrays[name] = array
        return arrays

    def _store_trace(
        self, digest: str, token: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        import numpy as np

        entry = self._trace_entry(digest)
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(
            tempfile.mkdtemp(dir=entry.parent, prefix=f".{digest[:8]}-")
        )
        try:
            meta = {"format": STORE_FORMAT_VERSION, "token": token, "arrays": {}}
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                np.save(tmp / f"{name}.npy", array)
                meta["arrays"][name] = {
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                    "sha256": _array_checksum(array),
                }
            (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True))
            try:
                os.replace(tmp, entry)
            except OSError:
                # Lost a benign race: another process stored this entry
                # first. Use theirs.
                shutil.rmtree(tmp, ignore_errors=True)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            return arrays  # store failed; serve the in-memory build
        loaded = self._load_trace(digest)
        return loaded if loaded is not None else arrays

    # ------------------------------------------------------------------
    # Rmax artifacts
    # ------------------------------------------------------------------
    def _rmax_path(self, digest: str) -> Path:
        return self.directory / "rmax" / f"{digest}.json"

    @staticmethod
    def _entries_checksum(entries: list[dict[str, Any]]) -> str:
        return hashlib.sha256(_canonical({"entries": entries}).encode()).hexdigest()

    def _quarantine_rmax(self, path: Path) -> None:
        _M_STORE[("rmax", "quarantined")].inc()
        obs_trace.event("store.quarantine", kind="rmax", path=str(path))
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass

    def rmax_entries(self, token: dict[str, Any]) -> list[dict[str, Any]] | None:
        """Solved entries for ``token``, or ``None`` if not stored.

        Counts a hit only on success; the *miss* is counted by the
        caller once it decides to solve (so a memoizer hit upstream
        never double-books).
        """
        digest = store_digest(token)
        cached = self._rmax_cache.get(digest)
        if cached is not None:
            _M_STORE[("rmax", "hit")].inc()
            return cached
        path = self._rmax_path(digest)
        try:
            payload = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            self._quarantine_rmax(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != STORE_FORMAT_VERSION
            or payload.get("token") != token
            or not isinstance(payload.get("entries"), list)
            or payload.get("sha256") != self._entries_checksum(payload["entries"])
        ):
            self._quarantine_rmax(path)
            return None
        _M_STORE[("rmax", "hit")].inc()
        self._rmax_cache[digest] = payload["entries"]
        return payload["entries"]

    def put_rmax_entries(
        self, token: dict[str, Any], entries: list[dict[str, Any]]
    ) -> None:
        digest = store_digest(token)
        self._rmax_cache[digest] = entries
        path = self._rmax_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": STORE_FORMAT_VERSION,
            "sha256": self._entries_checksum(entries),
            "token": token,
            "entries": entries,
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{digest[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def count_rmax_miss(self) -> None:
        """Book one Rmax store miss (called by the solving memoizer)."""
        _M_STORE[("rmax", "miss")].inc()

    # ------------------------------------------------------------------
    # Populate / teardown (engine lifecycle)
    # ------------------------------------------------------------------
    def populate(self, needs: Iterable[tuple]) -> int:
        """Precompute every distinct need before cells fan out.

        ``needs`` are the tuples produced by the cells' ``store_needs``
        hooks — see :meth:`repro.harness.exec.MixSchemeCell.store_needs`.
        Unknown kinds are ignored (forward compatibility). Returns the
        number of distinct needs ensured.
        """
        distinct = list(dict.fromkeys(tuple(need) for need in needs))
        for need in distinct:
            kind = need[0]
            if kind == "trace":
                _, spec, crypto, scale, seed = need
                ensure_workload_trace(self, spec, crypto, scale, seed)
            elif kind == "spec-stream":
                _, benchmark, instructions, lines_per_mb, seed = need
                ensure_spec_stream_trace(
                    self, benchmark, instructions, lines_per_mb, seed
                )
            elif kind == "rmax":
                from repro.schemes.untangle import populate_rate_table

                _, cooldown, capacity = need
                populate_rate_table(cooldown, capacity=capacity)
            elif kind == "rmax-worst":
                from repro.schemes.untangle import populate_rate_table

                (_, cooldown) = need
                populate_rate_table(cooldown, capacity=1, worst_case=True)
        return len(distinct)

    def unsolved_tables(self, needs: Iterable[tuple]) -> list[tuple]:
        """The distinct R_max table needs still waiting for a solve.

        A table found in this process's memo or in the store is loaded
        here (never solved) and left out, so only tables that need a
        Dinkelbach solve are returned, in first-seen order.
        """
        from repro.schemes.untangle import load_rate_table

        unsolved = []
        for need in dict.fromkeys(tuple(need) for need in needs):
            if need[0] == "rmax":
                loaded = load_rate_table(need[1], capacity=need[2])
            elif need[0] == "rmax-worst":
                loaded = load_rate_table(need[1], capacity=1, worst_case=True)
            else:
                continue
            if not loaded:
                unsolved.append(need)
        return unsolved

    def release(self) -> None:
        """Drop this process's attachments and cached Rmax entries.

        Called by the engine on run exit — including the SIGINT path.
        Idempotent; the on-disk entries persist (that persistence *is*
        the warm path).
        """
        self._attached.clear()
        self._rmax_cache.clear()


# ----------------------------------------------------------------------
# Active-store resolution (process-global; environment-driven in workers)
# ----------------------------------------------------------------------
_ACTIVE: PrecomputeStore | None = None
_ACTIVE_SET = False
_ENV_STORE: tuple[str | None, PrecomputeStore | None] | None = None


def set_active_store(store: PrecomputeStore | None) -> None:
    """Explicitly activate (or deactivate) a store for this process.

    An explicit activation overrides environment resolution;
    ``clear_active_store`` reverts to the environment.
    """
    global _ACTIVE, _ACTIVE_SET
    _ACTIVE = store
    _ACTIVE_SET = True


def clear_active_store() -> None:
    global _ACTIVE, _ACTIVE_SET
    _ACTIVE = None
    _ACTIVE_SET = False


def get_active_store() -> PrecomputeStore | None:
    """The store in effect for this process, or ``None``.

    Resolution order: an explicit :func:`set_active_store` wins;
    otherwise ``REPRO_STORE_DIR`` — which is how spawned engine workers
    find the campaign's store (see :func:`store_scope`).
    """
    if _ACTIVE_SET:
        return _ACTIVE
    global _ENV_STORE
    directory = os.environ.get(STORE_DIR_ENV)
    if _ENV_STORE is None or _ENV_STORE[0] != directory:
        _ENV_STORE = (
            directory,
            PrecomputeStore(directory) if directory else None,
        )
    return _ENV_STORE[1]


@contextmanager
def store_scope(store: PrecomputeStore | None) -> Iterator[None]:
    """Make ``store`` — or no store — the one cells see, until exit.

    Cells in this process (and forked workers) resolve it through
    :func:`get_active_store`; spawned and respawned workers through
    ``REPRO_STORE_DIR``, which is set to the store's directory, or
    removed, for the scope. The previous activation and the previous
    variable come back on every exit path, so one engine's store never
    leaks into a later run or a direct ``cached_build_workload`` call.
    """
    global _ACTIVE, _ACTIVE_SET
    saved = (_ACTIVE, _ACTIVE_SET, os.environ.get(STORE_DIR_ENV))
    set_active_store(store)
    if store is None:
        os.environ.pop(STORE_DIR_ENV, None)
    else:
        os.environ[STORE_DIR_ENV] = str(store.directory.resolve())
    try:
        yield
    finally:
        _ACTIVE, _ACTIVE_SET, previous = saved
        if previous is None:
            os.environ.pop(STORE_DIR_ENV, None)
        else:
            os.environ[STORE_DIR_ENV] = previous


def detach_store() -> None:
    """Stop serving the store of the enclosing :func:`store_scope` —
    here and in every worker (re)spawned from now on."""
    set_active_store(None)
    os.environ.pop(STORE_DIR_ENV, None)


# ----------------------------------------------------------------------
# Store-aware builders (the seams the harness calls)
# ----------------------------------------------------------------------
def ensure_workload_trace(
    store: PrecomputeStore, spec: str, crypto: str, scale, seed: int,
    secret: int = 0,
) -> dict[str, np.ndarray]:
    from repro.workloads.workload import compose_workload_arrays

    return store.trace_arrays(
        workload_token(spec, crypto, scale, seed, secret),
        lambda: compose_workload_arrays(
            spec, crypto, scale, seed=seed, secret=secret
        ),
    )


def ensure_spec_stream_trace(
    store: PrecomputeStore,
    benchmark: str,
    instructions: int,
    lines_per_mb: int,
    seed: int,
) -> dict[str, np.ndarray]:
    def build() -> dict[str, np.ndarray]:
        from repro.harness.sensitivity import compose_spec_stream_arrays
        from repro.workloads.spec import SPEC_BENCHMARKS

        return compose_spec_stream_arrays(
            SPEC_BENCHMARKS[benchmark], instructions, lines_per_mb, seed
        )

    return store.trace_arrays(
        spec_stream_token(benchmark, instructions, lines_per_mb, seed), build
    )


def cached_build_workload(
    spec_name: str,
    crypto_name: str,
    scale=None,
    *,
    seed: int = 0,
    secret: int = 0,
    timing_jitter: int = 0,
):
    """:func:`~repro.workloads.workload.build_workload` through the store.

    With no active store this *is* the legacy build path; with one, the
    composed arrays come from the store (bit-identical, zero-copy on a
    hit) and only the cheap assembly runs per call.
    """
    from repro.workloads.workload import (
        WorkloadScale,
        assemble_workload,
        build_workload,
    )

    store = get_active_store()
    if store is None:
        return build_workload(
            spec_name,
            crypto_name,
            scale,
            seed=seed,
            secret=secret,
            timing_jitter=timing_jitter,
        )
    if scale is None:
        scale = WorkloadScale()
    arrays = ensure_workload_trace(
        store, spec_name, crypto_name, scale, seed, secret
    )
    return assemble_workload(
        spec_name,
        crypto_name,
        scale,
        arrays,
        seed=seed,
        timing_jitter=timing_jitter,
    )


def cached_spec_stream(
    benchmark, instructions: int, lines_per_mb: int, seed: int
):
    """Sensitivity-study stream through the store (or legacy build)."""
    from repro.core.annotations import AnnotationVector
    from repro.harness.sensitivity import build_spec_only_stream_direct
    from repro.sim.cpu import InstructionStream

    store = get_active_store()
    if store is None:
        return build_spec_only_stream_direct(
            benchmark, instructions, lines_per_mb, seed
        )
    arrays = ensure_spec_stream_trace(
        store, benchmark.name, instructions, lines_per_mb, seed
    )
    addresses = arrays["addresses"]
    return InstructionStream(
        addresses, AnnotationVector.public(len(addresses))
    )


# ----------------------------------------------------------------------
# Telemetry plumbing (shared with the execution engine)
# ----------------------------------------------------------------------
#: Snapshot keys -> (metric name, labels) read back from the registry.
_STAT_SERIES: dict[str, tuple[str, dict[str, str]]] = {
    "store_trace_hits": (
        "repro_store_requests_total", {"kind": "trace", "outcome": "hit"}
    ),
    "store_trace_misses": (
        "repro_store_requests_total", {"kind": "trace", "outcome": "miss"}
    ),
    "store_rmax_hits": (
        "repro_store_requests_total", {"kind": "rmax", "outcome": "hit"}
    ),
    "store_rmax_misses": (
        "repro_store_requests_total", {"kind": "rmax", "outcome": "miss"}
    ),
    "store_quarantined_trace": (
        "repro_store_requests_total",
        {"kind": "trace", "outcome": "quarantined"},
    ),
    "store_quarantined_rmax": (
        "repro_store_requests_total",
        {"kind": "rmax", "outcome": "quarantined"},
    ),
    "store_trace_bytes": ("repro_store_bytes_total", {"kind": "trace"}),
    "workload_builds": ("repro_workload_builds_total", {}),
    "rmax_solves": ("repro_rmax_solves_total", {}),
}


def store_stats_snapshot() -> dict[str, float]:
    """Current process-local values of every store-related counter."""
    registry = obs_metrics.get_registry()
    return {
        key: registry.counter(name, **labels).value
        for key, (name, labels) in _STAT_SERIES.items()
    }


def store_stats_delta(
    before: dict[str, float], after: dict[str, float]
) -> dict[str, float]:
    """Per-key increase between two snapshots (only non-zero keys)."""
    return {
        key: after[key] - before[key]
        for key in _STAT_SERIES
        if after.get(key, 0.0) != before.get(key, 0.0)
    }


def apply_store_stats_delta(delta: dict[str, float]) -> None:
    """Re-apply a worker's counter delta to this process's registry.

    Worker processes accumulate store/build/solve counters in their own
    registries; the engine ships the per-cell delta back with each
    result and replays it here so the parent registry — the one the
    exporters read — accounts for work wherever it ran.
    """
    registry = obs_metrics.get_registry()
    for key, amount in delta.items():
        series = _STAT_SERIES.get(key)
        if series is not None and amount > 0:
            registry.counter(series[0], **series[1]).inc(amount)
