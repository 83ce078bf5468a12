"""Parallel experiment execution engine with on-disk result caching.

Every figure and table of the paper is a grid of independent
``(mix, scheme, profile)`` — or, for Figure 11, ``(benchmark, size,
profile)`` — simulation cells. This module fans those cells out over a
process pool and memoizes their results in a content-addressed on-disk
cache, so that

* a grid of ``M`` mixes × ``S`` schemes runs on ``min(jobs, M*S)``
  cores instead of one, and
* re-running a benchmark driver after an unrelated edit performs zero
  simulations: each cell's cache key is a deterministic hash of the mix
  pairs, the scheme name, and the **full** :class:`RunProfile`, so a
  result is reused if and only if the inputs that determine it are
  unchanged.

Because each cell builds its own seeded :class:`MultiDomainSystem` from
scratch, parallel execution is *bit-identical* to serial execution (and
to a cache hit or a journal replay: the JSON round-trip used by both is
exact for Python floats). ``tests/harness/test_exec.py`` pins both
guarantees.

Fault tolerance — the measurement substrate must be at least as
dependable as the system under test:

* **Crash-safe journal + resume.** With a :class:`RunJournal` attached,
  every finished cell is durably appended before it is reported; after
  a crash/SIGKILL, ``resume=True`` replays journaled outcomes (zero
  re-simulation) and runs only the cells that never completed.
* **Worker supervision.** Parallel cells run on dedicated worker
  processes watched by a supervisor: a worker that crashes or blows its
  per-cell deadline is killed and respawned, and its cell is retried
  with exponential backoff + deterministic jitter — one stuck cell can
  no longer occupy a pool slot for the rest of the run.
* **Heartbeat liveness.** Workers interleave progress-carrying
  heartbeats with their result stream, so the supervisor distinguishes
  *slow* (progress advancing — deadlines extend) from *hung* (progress
  frozen — ``worker.unresponsive`` fires, and a stall kill can land
  before the per-cell deadline).
* **Poison-cell circuit breaker.** A cell whose every attempt killed
  its worker is quarantined as ``poisoned`` instead of shooting workers
  forever: the campaign completes, a failure manifest
  (``failures.json``) is rendered, and ``--resume`` re-attempts exactly
  the poisoned/failed cells.
* **Degraded-mode I/O.** ``ENOSPC``/``EIO`` on the journal, result
  cache, or precompute store downgrades that subsystem (journal →
  no-resume warning, cache/store → compute-only) — visible in
  telemetry, ``repro_degraded_total``, and the run span — instead of
  aborting hours of surviving work.
* **Graceful shutdown.** SIGINT/SIGTERM terminate workers cleanly,
  leave the journal valid, and surface a resume hint via
  :class:`~repro.errors.CampaignInterrupted`.
* **Orphan reaping.** Startup sweeps fault-state directories whose
  owning process died uncleanly (SIGKILL) — see
  :mod:`repro.harness.reaper`.
* **Cache integrity.** Every pack line is a sealed record
  (:mod:`repro.harness.integrity`); corrupt, truncated, or
  version-mismatched entries are quarantined (their bytes moved to
  ``packs/<shard>.corrupt``) and counted in telemetry instead of being
  silently re-parsed forever.
* **Fault injection.** A :class:`~repro.harness.faults.FaultPlan`
  (``REPRO_FAULTS``) injects crashes, hangs, worker kills, and cache
  corruption so every recovery path above is provable by tests.

Telemetry: the engine counts cache hits/misses, journal replays,
simulations, retries, failures, quarantines, and supervision events;
:func:`repro.harness.report.render_telemetry` renders the summary and
the optional ``progress`` callback receives one structured line per
completed cell.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.errors import CampaignInterrupted, ConfigurationError, JournalError
from repro.harness.faults import FaultPlan, release_fault_state
from repro.harness.integrity import digest, seal, unseal, write_atomic
from repro.harness.journal import JournalEntry, RunJournal
from repro.harness.reaper import reap_orphans
from repro.harness.profiling import maybe_profile, reset_claim
from repro.harness.runconfig import RunProfile
from repro.harness.settings import engine_from_env  # noqa: F401 (re-export)
from repro.harness.store import (
    PrecomputeStore,
    apply_store_stats_delta,
    detach_store,
    get_active_store,
    store_scope,
    store_stats_delta,
    store_stats_snapshot,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.liveness import progress_beat, progress_value

#: Bump when the simulator's semantics change incompatibly: it is part
#: of every cell key, so old results are never looked up again. (3:
#: symmetric linear-interpolation partition quartiles; unfinished slices
#: report partial IPC instead of 0.)
CELL_KEY_VERSION = 3

#: Bump when the pack line or sidecar layout changes incompatibly; old
#: lines then fail the version check and are quarantined, not misread.
#: (2: entries carry a payload checksum. 4: sealed pack lines and
#: sidecars.)
CACHE_FORMAT_VERSION = 4

#: Layout version of the failure manifest (``failures.json``).
MANIFEST_FORMAT_VERSION = 1

#: File the failure manifest is rendered to, next to the journal (or in
#: the cache directory when no journal is attached).
MANIFEST_NAME = "failures.json"

#: Cap on *successful* per-cell records retained in telemetry; beyond
#: it only the counters and per-cell wall seconds are kept (failures
#: are always retained for the manifest/report).
MAX_RETAINED_RECORDS = 10_000

# Engine-level metrics, recorded per cell / per supervision event (never
# per simulated access), so they are cheap enough to count always;
# REPRO_METRICS only controls whether they are exported. They live in
# the process-wide registry (repro.obs.metrics.get_registry()) alongside
# the simulator's and journal's counters.
_REG = obs_metrics.get_registry()
_M_CELLS = {
    status: _REG.counter(
        "repro_exec_cells_total",
        "Engine cell outcomes by status",
        status=status,
    )
    for status in ("computed", "hit", "replayed", "failed", "poisoned")
}
_M_RETRIES = _REG.counter("repro_exec_retries_total", "Cell retry attempts")
_M_CYCLES = _REG.counter(
    "repro_exec_cycles_simulated_total", "Simulated cycles across cells"
)
_M_WORKER = {
    kind: _REG.counter(
        "repro_exec_worker_events_total",
        "Worker supervision events",
        kind=kind,
    )
    for kind in ("crash", "timeout", "respawn", "unresponsive")
}
_M_DEGRADED = {
    subsystem: _REG.counter(
        "repro_degraded_total",
        "I/O subsystems downgraded mid-campaign instead of aborting",
        subsystem=subsystem,
    )
    for subsystem in ("journal", "cache", "store")
}
_M_BACKOFF = _REG.counter(
    "repro_exec_backoff_seconds_total", "Retry backoff delay scheduled"
)
_M_CACHE = {
    kind: _REG.counter(
        "repro_cache_requests_total",
        "Result-cache lookups by outcome",
        outcome=kind,
    )
    for kind in ("hit", "miss", "quarantined")
}
_M_PACK_BYTES = _REG.counter(
    "repro_cache_pack_bytes_total",
    "Bytes appended to result-cache pack segments",
)
_M_CELL_SECONDS = _REG.histogram(
    "repro_exec_cell_seconds",
    "Per-cell wall time (completed cells)",
    buckets=obs_metrics.CELL_SECONDS_BUCKETS,
)


# ----------------------------------------------------------------------
# Cells: one independent unit of simulation work
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=64)
def _profile_token(profile: RunProfile) -> dict[str, Any]:
    """The full profile as a canonical, JSON-able dict (cache identity).

    Computed once per profile (a frozen, hashable dataclass) rather than
    once per cell; the dict is shared between cells, so it is read-only.
    """
    return dataclasses.asdict(profile)


@dataclass(frozen=True)
class MixSchemeCell:
    """One mix simulated under one scheme — a Figure 10/12-17 cell.

    ``scheme_params`` holds registry parameter overrides as a sorted
    ``((name, value), ...)`` tuple (see
    :func:`repro.registry.canonical_params`). It is *omitted* from the
    cache token when empty, so every cell spelled the old way — every
    cell of every existing campaign — keeps its exact cache key.
    """

    pairs: tuple[tuple[str, str], ...]
    scheme: str
    profile: RunProfile
    scheme_params: tuple[tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        base = f"mix[{'|'.join(s + '+' + c for s, c in self.pairs)}]/{self.scheme}"
        if not self.scheme_params:
            return base
        overrides = ",".join(f"{k}={v}" for k, v in self.scheme_params)
        return f"{base}{{{overrides}}}"

    def cache_token(self) -> dict[str, Any]:
        token = {
            "kind": "mix-scheme",
            "pairs": [list(pair) for pair in self.pairs],
            "scheme": self.scheme,
            "profile": _profile_token(self.profile),
        }
        if self.scheme_params:
            token["scheme_params"] = {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in self.scheme_params
            }
        return token

    def execute(self) -> Any:
        from repro.harness.experiment import run_mix_scheme

        return run_mix_scheme(
            list(self.pairs),
            self.scheme,
            self.profile,
            scheme_params=dict(self.scheme_params) or None,
        )

    @staticmethod
    def prefork_warm(cells: list["MixSchemeCell"]) -> int:
        """Pre-compute shared pure state in the dispatching process.

        The supervisor calls this once, right before forking workers:
        untangle rate tables, L1 service traces and the monitor traces
        of each cell's built monitors are pure functions of the cell
        inputs, so one solve/walk here is inherited copy-on-write by
        every worker instead of being repeated per worker that draws a
        cell needing it. When a pool worker solves the rate tables (see
        :class:`StoreTask`), the supervisor runs this under
        :func:`~repro.schemes.untangle.unsolved_rate_tables`, so no
        table is solved here. Purely an optimization — results are
        identical without it.
        """
        from repro.harness.experiment import warm_l1_traces, warm_rate_tables

        warmed = warm_rate_tables(
            [(cell.scheme, cell.profile, cell.scheme_params)
             for cell in cells]
        )
        warmed += warm_l1_traces(
            [(list(cell.pairs), cell.profile, cell.scheme, cell.scheme_params)
             for cell in cells]
        )
        return warmed

    def store_needs(self) -> list[tuple]:
        """Precomputable artifacts this cell will consume (store populate).

        One workload trace per pair (mirroring ``run_mix_scheme``'s
        seeds) plus whatever the scheme's registration declares — for
        the Untangle variants, the exact rate table its factory will
        request.
        """
        from repro.registry import scheme_store_needs

        needs: list[tuple] = [
            ("trace", spec, crypto, self.profile.workload_scale,
             self.profile.seed + index)
            for index, (spec, crypto) in enumerate(self.pairs)
        ]
        try:
            needs.extend(
                scheme_store_needs(
                    self.scheme, self.profile, dict(self.scheme_params)
                )
            )
        except ConfigurationError:
            # An unregistered scheme fails loudly at execute(); store
            # populate must not be the first place to die.
            pass
        return needs

    @staticmethod
    def cycles_of(value: Any) -> int:
        return int(value.total_cycles)

    @staticmethod
    def encode(value: Any) -> dict[str, Any]:
        return {
            "scheme": value.scheme,
            "total_cycles": value.total_cycles,
            "workloads": [
                {
                    "label": w.label,
                    "ipc": w.ipc,
                    "assessments": w.assessments,
                    "visible_actions": w.visible_actions,
                    "leakage_bits": w.leakage_bits,
                    "partition_quartiles": list(w.partition_quartiles),
                }
                for w in value.workloads
            ],
        }

    @staticmethod
    def decode(payload: dict[str, Any]) -> Any:
        from repro.harness.experiment import SchemeRunResult, WorkloadResult

        return SchemeRunResult(
            scheme=payload["scheme"],
            total_cycles=payload["total_cycles"],
            workloads=[
                WorkloadResult(
                    label=w["label"],
                    ipc=w["ipc"],
                    assessments=w["assessments"],
                    visible_actions=w["visible_actions"],
                    leakage_bits=w["leakage_bits"],
                    partition_quartiles=tuple(w["partition_quartiles"]),
                )
                for w in payload["workloads"]
            ],
        )


@dataclass(frozen=True)
class SensitivityCell:
    """One benchmark alone at one partition size — a Figure 11 cell."""

    benchmark: str
    partition_lines: int
    profile: RunProfile

    @property
    def label(self) -> str:
        return f"sensitivity[{self.benchmark}]/{self.partition_lines}"

    def cache_token(self) -> dict[str, Any]:
        return {
            "kind": "sensitivity",
            "benchmark": self.benchmark,
            "partition_lines": self.partition_lines,
            "profile": _profile_token(self.profile),
        }

    def execute(self) -> Any:
        from repro.harness.sensitivity import run_benchmark_at_size
        from repro.workloads.spec import SPEC_BENCHMARKS

        return run_benchmark_at_size(
            SPEC_BENCHMARKS[self.benchmark], self.partition_lines, self.profile
        )

    def store_needs(self) -> list[tuple]:
        """One shared SPEC-only trace per benchmark, reused by all sizes."""
        scale = self.profile.workload_scale
        return [
            (
                "spec-stream",
                self.benchmark,
                scale.spec_instructions,
                scale.lines_per_mb,
                self.profile.seed,
            )
        ]

    @staticmethod
    def cycles_of(value: Any) -> int | None:
        return None

    @staticmethod
    def encode(value: Any) -> dict[str, Any]:
        return {"ipc": value}

    @staticmethod
    def decode(payload: dict[str, Any]) -> Any:
        return payload["ipc"]


def cell_key(cell: Any) -> str:
    """Deterministic content hash identifying one cell's result."""
    return digest({"format": CELL_KEY_VERSION, **cell.cache_token()})


@dataclass(frozen=True)
class StoreTask:
    """One store need (an R_max table) built on a pool worker.

    Not a cell: the supervisor dispatches it ahead of every cell, holds
    back the cells whose ``store_needs()`` name it until it has put the
    artifact into the precompute store, and never journals, caches or
    counts it. Its worker ships the usual metrics delta, so solve counts
    stay exact.
    """

    need: tuple

    @property
    def label(self) -> str:
        return "store[" + ":".join(str(part) for part in self.need) + "]"

    def execute(self) -> None:
        store = get_active_store()
        with obs_trace.span(
            "store.populate", store=store.describe(), needs=1, label=self.label
        ) as span:
            span.set(distinct=store.populate([self.need]))


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of cell results in packed segments.

    Entries are appended to per-shard pack segments
    (``<directory>/packs/<key[:1]>.pack``, one JSON line per entry)
    with an in-memory offset index, persisted as a compact sidecar
    (``<shard>.idx``) on teardown so a warm process locates every entry
    without rescanning. One put is one ``write(2)`` on an already-open
    ``O_APPEND`` descriptor — no per-entry ``mkdir``/``mkstemp``/
    ``os.replace``.

    Integrity: every pack line and sidecar is a sealed record
    (:mod:`repro.harness.integrity`). An entry that is torn, garbled,
    fails its seal, or is format-incompatible is *quarantined* — its
    bytes are appended to the shard's ``<shard>.corrupt`` sidecar and
    the pack is compacted (atomic rewrite + rename) to drop exactly the
    damaged lines, counted in :attr:`quarantined`. Anything else under
    the directory (such as the one-file-per-entry ``<key[:2]>/<key>.json``
    layout of older caches) is ignored: such entries are recomputed,
    never misread.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        #: Entries quarantined by :meth:`get` over this instance's life.
        self.quarantined = 0
        #: Successful/absent lookups over this instance's life.
        self.hits = 0
        self.misses = 0
        # Packed-segment state: per-shard offset index, bytes scanned,
        # open O_APPEND descriptors, and which sidecars need rewriting.
        self._index: dict[str, dict[str, tuple[int, int]]] = {}
        self._scanned: dict[str, int] = {}
        self._fds: dict[str, int] = {}
        self._dirty: set[str] = set()
        self._packs_dir_made = False
        #: Shards already brought up to date by :meth:`_refresh_shard`
        #: this instance (one ``stat`` + tail scan per shard, not per
        #: get). A validation failure still forces a full re-scan.
        self._refreshed: set[str] = set()

    # -- paths ----------------------------------------------------------
    @staticmethod
    def _pack_shard(key: str) -> str:
        """Pack shard of a key: one hex character, sixteen segments.

        Few, large, append-only files (few descriptors, sidecars and
        fsync targets); sixteen segments keep even a large cache at a
        comfortable per-segment size.
        """
        return key[:1]

    def _pack_path(self, shard: str) -> Path:
        return self.directory / "packs" / f"{shard}.pack"

    def _index_path(self, shard: str) -> Path:
        return self.directory / "packs" / f"{shard}.idx"

    def _corrupt_path(self, shard: str) -> Path:
        return self.directory / "packs" / f"{shard}.corrupt"

    # -- pack plumbing --------------------------------------------------
    def _ensure_packs_dir(self) -> None:
        if not self._packs_dir_made:
            (self.directory / "packs").mkdir(parents=True, exist_ok=True)
            self._packs_dir_made = True

    def _fd(self, shard: str) -> int:
        """The shard's append descriptor, opened (and tail-repaired) once."""
        fd = self._fds.get(shard)
        if fd is not None:
            return fd
        self._ensure_packs_dir()
        fd = os.open(
            self._pack_path(shard),
            os.O_APPEND | os.O_CREAT | os.O_RDWR,
            0o644,
        )
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            # A torn final append (crash mid-write) left no newline;
            # terminate it so the fragment scans as one damaged line
            # instead of gluing itself onto the next entry.
            os.write(fd, b"\n")
        self._fds[shard] = fd
        return fd

    def _load_sidecar(self, shard: str, size: int) -> int:
        """Seed the in-memory index from ``<shard>.idx``; returns the
        byte offset up to which the sidecar is authoritative."""
        try:
            sidecar = unseal(self._index_path(shard).read_bytes())
        except OSError:
            return 0
        if (
            sidecar is None
            or sidecar.get("format") != CACHE_FORMAT_VERSION
            or sidecar["pack_bytes"] > size
        ):
            # Stale or damaged sidecar (e.g. the pack was compacted or
            # truncated after it was written): fall back to a full scan.
            # A sealed sidecar of this format is exactly what
            # _write_sidecar wrote, so its fields need no type checks.
            return 0
        index = self._index.setdefault(shard, {})
        for key, (offset, length) in sidecar["entries"].items():
            index[key] = (offset, length)
        return sidecar["pack_bytes"]

    def _refresh_shard(self, shard: str) -> None:
        """Index any pack bytes this instance has not scanned yet.

        Damaged lines found while scanning (torn tail from a crash,
        foreign garbage, a failed seal or another format) are
        quarantined immediately; valid entries are indexed newest-wins.
        A trailing fragment without a newline is left unscanned — the
        tail repair in :meth:`_fd` bounds it.

        Runs once per shard per instance: a fresh instance always
        re-scans (so cross-process appends are picked up between
        campaigns), but within one campaign the supervisor is the only
        writer, so repeating the ``stat`` on every get buys nothing.
        :meth:`_read_packed` drops the memo when validation fails.
        """
        if shard in self._refreshed:
            return
        self._refreshed.add(shard)
        path = self._pack_path(shard)
        try:
            size = path.stat().st_size
        except OSError:
            self._index.setdefault(shard, {})
            self._scanned.setdefault(shard, 0)
            return
        scanned = self._scanned.get(shard)
        if scanned is None:
            scanned = self._load_sidecar(shard, size)
        if size <= scanned:
            self._index.setdefault(shard, {})
            self._scanned[shard] = scanned
            return
        try:
            with open(path, "rb") as handle:
                handle.seek(scanned)
                blob = handle.read(size - scanned)
        except OSError:
            self._index.setdefault(shard, {})
            self._scanned.setdefault(shard, scanned)
            return
        index = self._index.setdefault(shard, {})
        offset = scanned
        damaged: list[bytes] = []
        end = len(blob)
        pos = 0
        while pos < end:
            newline = blob.find(b"\n", pos)
            if newline < 0:
                break  # in-flight/torn tail: not scanned, not damaged
            line = blob[pos : newline + 1]
            length = len(line)
            entry = self._entry(line)
            if entry is not None:
                index[entry["key"]] = (offset, length)
            elif line.strip():
                damaged.append(line)
            offset += length
            pos = newline + 1
        self._scanned[shard] = offset
        if damaged:
            for line in damaged:
                self._quarantine_packed_bytes(shard, line)
            self._compact_shard(shard)

    def _quarantine_packed_bytes(self, shard: str, data: bytes) -> None:
        """Book one damaged packed entry: counted, bytes preserved in
        the shard's ``.corrupt`` sidecar for diagnosis."""
        self.quarantined += 1
        _M_CACHE["quarantined"].inc()
        obs_trace.event(
            "cache.quarantine", path=str(self._pack_path(shard)), shard=shard
        )
        try:
            self._ensure_packs_dir()
            with open(self._corrupt_path(shard), "ab") as handle:
                handle.write(data if data.endswith(b"\n") else data + b"\n")
        except OSError:
            pass

    def _compact_shard(self, shard: str) -> None:
        """Rewrite the shard's pack from its surviving index entries.

        Atomic (temp file + rename), so readers never see a half-
        compacted pack; only the quarantined lines are dropped, every
        surviving entry's bytes are preserved verbatim.
        """
        path = self._pack_path(shard)
        index = self._index.get(shard, {})
        with obs_trace.span(
            "cache.compact", path=str(path), entries=len(index)
        ):
            fd = self._fd(shard)
            survivors: list[bytes] = []
            new_index: dict[str, tuple[int, int]] = {}
            offset = 0
            for key, (old, length) in sorted(
                index.items(), key=lambda item: item[1][0]
            ):
                data = os.pread(fd, length, old)
                if len(data) == length:
                    survivors.append(data)
                    new_index[key] = (offset, length)
                    offset += length
            write_atomic(path, b"".join(survivors), fsync=True)
            # The open descriptor still points at the pre-compaction
            # inode; reopen lazily.
            os.close(self._fds.pop(shard))
            self._index[shard] = new_index
            self._scanned[shard] = offset
            self._dirty.add(shard)

    def _write_sidecar(self, shard: str) -> None:
        index = self._index.get(shard)
        if index is None:
            return
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "pack_bytes": self._scanned.get(shard, 0),
            "entries": {key: list(loc) for key, loc in index.items()},
        }
        try:
            write_atomic(self._index_path(shard), seal(payload))
        except OSError:
            pass

    def release_handles(self) -> None:
        """Persist dirty sidecar indexes and close pack descriptors.

        Called on engine teardown (and finalization) so a campaign
        holds at most one descriptor per touched shard while running
        and zero afterwards.
        """
        for shard in sorted(self._dirty):
            self._write_sidecar(shard)
        self._dirty.clear()
        for shard in list(self._fds):
            try:
                os.close(self._fds.pop(shard))
            except OSError:
                pass

    def __del__(self):  # pragma: no cover - finalization best-effort
        try:
            self.release_handles()
        except Exception:
            pass

    # -- lookup ---------------------------------------------------------
    @staticmethod
    def _entry(line: bytes) -> dict[str, Any] | None:
        """The entry one pack line holds, or ``None`` if it is damaged."""
        entry = unseal(line)
        if (
            entry is None
            or entry.get("format") != CACHE_FORMAT_VERSION
            or not isinstance(entry.get("key"), str)
            or "value" not in entry
        ):
            return None
        return entry

    def _read_packed(self, shard: str, key: str) -> dict[str, Any] | None:
        """The packed entry for ``key``, or ``None`` if it has none.

        Bytes that are not the key's valid entry force a rescan of the
        whole pack, sidecar ignored: the index may be stale if another
        process appended or compacted, and the scan quarantines every
        damaged line it meets, so a damaged entry leaves the index and
        reads as a miss.
        """
        for attempt in range(2):
            loc = self._index.get(shard, {}).get(key)
            if loc is None:
                return None
            offset, length = loc
            try:
                data = os.pread(self._fd(shard), length, offset)
            except OSError:
                return None
            entry = self._entry(data) if len(data) == length else None
            if entry is not None and entry["key"] == key:
                return entry
            if attempt == 0:
                self._index[shard] = {}
                self._scanned[shard] = 0
                self._refreshed.discard(shard)
                self._refresh_shard(shard)
        return None

    def get(self, key: str) -> dict[str, Any] | None:
        shard = self._pack_shard(key)
        self._refresh_shard(shard)
        payload = self._read_packed(shard, key)
        if payload is not None:
            self.hits += 1
            _M_CACHE["hit"].inc()
            return payload
        self.misses += 1
        _M_CACHE["miss"].inc()
        return None

    # -- write ----------------------------------------------------------
    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Append one entry, atomically visible to readers.

        One append of one serialized line (newline-terminated appends
        are atomic for readers; a newer line for the same key shadows
        older ones). Raises ``OSError`` (e.g.
        ``ENOSPC``/``EIO``): the engine downgrades the cache to
        compute-only on the first write failure rather than silently
        dropping every entry onto a full disk for the rest of the
        campaign.
        """
        record = {"format": CACHE_FORMAT_VERSION, "key": key, **payload}
        line = (seal(record) + "\n").encode("utf-8")
        shard = self._pack_shard(key)
        fd = self._fd(shard)
        offset = os.lseek(fd, 0, os.SEEK_END)
        os.write(fd, line)
        _M_PACK_BYTES.inc(len(line))
        index = self._index.setdefault(shard, {})
        index[key] = (offset, len(line))
        if self._scanned.get(shard, 0) == offset:
            # Contiguous with what we have scanned; otherwise a foreign
            # writer appended in between and the next refresh re-scans.
            self._scanned[shard] = offset + len(line)
        self._dirty.add(shard)

    # -- fault seam -----------------------------------------------------
    def corrupt_entry(self, key: str) -> None:
        """Garble the stored entry for ``key`` in place (fault injection).

        The entry is damaged *within* its line — byte length and
        neighbors untouched, so exactly one entry is affected. A key
        with no stored entry is left alone.
        """
        shard = self._pack_shard(key)
        self._refresh_shard(shard)
        loc = self._index.get(shard, {}).get(key)
        if loc is None:
            return
        offset, length = loc
        stamp = b"#torn-write#"[: max(1, length - 2)]
        try:
            # Not the shard's O_APPEND descriptor: pwrite on O_APPEND
            # appends regardless of offset (Linux), which would leave
            # the target line intact.
            fd = os.open(self._pack_path(shard), os.O_WRONLY)
            try:
                os.pwrite(fd, stamp, offset)
            finally:
                os.close(fd)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
@dataclass
class CellRecord:
    """Per-cell telemetry line."""

    label: str
    status: str  # "hit" | "replayed" | "computed" | "failed" | "poisoned"
    wall_seconds: float
    attempts: int
    cycles: int | None = None
    error: str | None = None


def _nearest_rank(ordered: list[float], q: float) -> float | None:
    """Exact nearest-rank ``q``-quantile of an ascending list."""
    if not ordered:
        return None
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class EngineTelemetry:
    """Counters accumulated across one engine's lifetime."""

    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    journal_replays: int = 0
    simulations: int = 0
    retries: int = 0
    failures: int = 0
    #: Subset of ``failures`` quarantined as poison: every attempt ended
    #: in a worker death, so retrying further is hopeless by evidence.
    poisoned: int = 0
    #: Damaged cache entries quarantined by this engine (their bytes
    #: moved to ``packs/<shard>.corrupt``).
    quarantines: int = 0
    #: Worker processes that died mid-cell (and were respawned).
    worker_crashes: int = 0
    #: Workers killed for blowing the per-cell deadline (or for stalling
    #: past the stall deadline with frozen heartbeat progress).
    worker_timeouts: int = 0
    workers_respawned: int = 0
    #: ``worker.unresponsive`` warnings: heartbeats silent or progress
    #: frozen long enough to flag, before any kill decision.
    worker_unresponsive: int = 0
    #: I/O subsystems downgraded mid-run instead of aborting the
    #: campaign: subsystem name -> first error, e.g.
    #: ``{"cache": "OSError: [Errno 28] No space left on device"}``.
    degraded: dict[str, str] = field(default_factory=dict)
    #: Total retry backoff delay scheduled (seconds).
    backoff_seconds: float = 0.0
    #: True when the run ended via SIGINT/SIGTERM.
    interrupted: bool = False
    wall_seconds: float = 0.0
    cell_seconds: float = 0.0
    cycles_simulated: int = 0
    #: Precompute-store accounting (PR 5), absorbed once per run from
    #: the metrics registry (populate + serial cells + worker deltas).
    store_trace_hits: int = 0
    store_trace_misses: int = 0
    store_trace_bytes: int = 0
    store_rmax_hits: int = 0
    store_rmax_misses: int = 0
    store_quarantines: int = 0
    #: Full workload compositions / Dinkelbach solves paid anywhere in
    #: the campaign — a warm store drives both to zero.
    workload_builds: int = 0
    rmax_solves: int = 0
    #: Per-cell records retained for reporting. Successful cells are
    #: capped at :data:`MAX_RETAINED_RECORDS` (the overflow counted in
    #: :attr:`records_dropped`); failed/poisoned cells are *always*
    #: retained — the failure manifest and report need every one of
    #: them.
    records: list[CellRecord] = field(default_factory=list)
    records_dropped: int = 0
    #: Wall seconds of every cell noted, for the exact percentiles of
    #: :meth:`snapshot`.
    cell_walls: list[float] = field(default_factory=list)

    def note(self, record: CellRecord) -> None:
        if (
            record.status in ("failed", "poisoned")
            or len(self.records) < MAX_RETAINED_RECORDS
        ):
            self.records.append(record)
        else:
            self.records_dropped += 1
        self.cell_walls.append(record.wall_seconds)
        self.cells += 1
        self.cell_seconds += record.wall_seconds
        _M_CELLS[record.status].inc()
        _M_CELL_SECONDS.observe(record.wall_seconds)
        if record.status == "hit":
            self.cache_hits += 1
            return
        if record.status == "replayed":
            # Replayed cells were *not* looked up in the cache and were
            # *not* re-simulated: they must never count as misses or
            # simulations (they would double-book work that a previous
            # campaign already paid for).
            self.journal_replays += 1
            return
        self.cache_misses += 1
        if record.status == "computed":
            self.simulations += 1
            if record.cycles is not None:
                self.cycles_simulated += record.cycles
                _M_CYCLES.inc(record.cycles)
        else:
            # "poisoned" is a flavor of failure: it counts inside
            # ``failures`` (keeping the accounting invariant four-way)
            # with its own subset counter for the breakdown/manifest.
            self.failures += 1
            if record.status == "poisoned":
                self.poisoned += 1
        retries = max(0, record.attempts - 1)
        self.retries += retries
        if retries:
            _M_RETRIES.inc(retries)

    def snapshot(self) -> dict[str, Any]:
        """Canonical counter dict — the single source of truth that both
        :func:`repro.harness.report.render_telemetry` and the metrics
        exporters render from.

        Invariant (pinned by tests):
        ``computed + hit + replayed + failed == total``
        (``poisoned`` is a subset of ``failed``, not a fifth term).
        """
        walls = sorted(self.cell_walls)
        return {
            "total": self.cells,
            "computed": self.simulations,
            "hit": self.cache_hits,
            "replayed": self.journal_replays,
            "failed": self.failures,
            "poisoned": self.poisoned,
            "misses": self.cache_misses,
            "retries": self.retries,
            "quarantined": self.quarantines,
            "worker_crashes": self.worker_crashes,
            "worker_timeouts": self.worker_timeouts,
            "workers_respawned": self.workers_respawned,
            "worker_unresponsive": self.worker_unresponsive,
            "degraded": dict(self.degraded),
            "backoff_seconds": self.backoff_seconds,
            "interrupted": self.interrupted,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds,
            "cycles_simulated": self.cycles_simulated,
            "store_trace_hits": self.store_trace_hits,
            "store_trace_misses": self.store_trace_misses,
            "store_trace_bytes": self.store_trace_bytes,
            "store_rmax_hits": self.store_rmax_hits,
            "store_rmax_misses": self.store_rmax_misses,
            "store_quarantines": self.store_quarantines,
            "workload_builds": self.workload_builds,
            "rmax_solves": self.rmax_solves,
            "records_dropped": self.records_dropped,
            "cell_seconds_p50": _nearest_rank(walls, 0.5),
            "cell_seconds_p90": _nearest_rank(walls, 0.9),
            "cell_seconds_p99": _nearest_rank(walls, 0.99),
        }

    def absorb_store(self, delta: dict[str, float]) -> None:
        """Fold one run's store/build/solve counter delta into telemetry.

        ``delta`` comes from :func:`repro.harness.store.store_stats_delta`
        over the run's registry snapshots — by then worker deltas have
        already been replayed into the parent registry, so each unit of
        work is counted exactly once regardless of where it executed.
        """
        self.store_trace_hits += int(delta.get("store_trace_hits", 0))
        self.store_trace_misses += int(delta.get("store_trace_misses", 0))
        self.store_trace_bytes += int(delta.get("store_trace_bytes", 0))
        self.store_rmax_hits += int(delta.get("store_rmax_hits", 0))
        self.store_rmax_misses += int(delta.get("store_rmax_misses", 0))
        self.store_quarantines += int(
            delta.get("store_quarantined_trace", 0)
            + delta.get("store_quarantined_rmax", 0)
        )
        self.workload_builds += int(delta.get("workload_builds", 0))
        self.rmax_solves += int(delta.get("rmax_solves", 0))

    def publish(self, registry=None) -> None:
        """Mirror the timing aggregates into the metrics registry.

        The count-like fields are already incremented live (in
        :meth:`note` and by the supervisor); only the engine-lifetime
        seconds, which accumulate outside any single counter event, are
        synced here as gauges.
        """
        registry = registry if registry is not None else _REG
        registry.gauge(
            "repro_exec_wall_seconds", "Engine wall-clock time"
        ).set(self.wall_seconds)
        # Per-cell seconds are NOT mirrored here: the
        # ``repro_exec_cell_seconds`` histogram already exports the sum
        # (and a second series under the same name would be invalid
        # Prometheus exposition).


@dataclass
class CellOutcome:
    """Result of running one cell through the engine."""

    cell: Any
    key: str
    value: Any | None
    status: str  # "hit" | "replayed" | "computed" | "failed" | "poisoned"
    wall_seconds: float
    attempts: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status not in ("failed", "poisoned")


# ----------------------------------------------------------------------
# Retry backoff
# ----------------------------------------------------------------------
def backoff_delay(
    key: str, attempt: int, base: float, cap: float
) -> float:
    """Exponential backoff with *deterministic* jitter.

    ``base * 2**(attempt-1)`` capped at ``cap``, scaled by a jitter
    factor in ``[0.5, 1.0)`` derived from a hash of ``(key, attempt)``
    — so concurrent retries de-synchronize, yet a re-run of the same
    campaign schedules bit-identical delays (no hidden randomness).
    """
    if base <= 0:
        return 0.0
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    jitter = 0.5 + digest[0] / 512.0
    return raw * jitter


# ----------------------------------------------------------------------
# Cost model (longest-expected-first dispatch order)
# ----------------------------------------------------------------------
def _cost_family(label: str) -> str:
    """The scheduling family of a cell label (its trailing component).

    ``mix[...]/untangle`` → ``untangle``; parameter overrides are
    stripped (``.../threshold{expand_fraction=0.95}`` → ``threshold``)
    so variants of one scheme share its cost history and weight;
    ``sensitivity[x]/4096`` → ``4096`` (sensitivity sizes fall through
    to the default weight, which is fine — they are mutually
    homogeneous).
    """
    family = label.rsplit("/", 1)[-1]
    return family.split("{", 1)[0]


def _family_weight(family: str) -> float:
    """Static cost seed for a family, from its scheme registration.

    Registered schemes declare their relative cost (Untangle variants
    pay monitors + Dinkelbach-style assessments; Time pays monitors;
    Static/Shared are bare simulation); non-scheme families — e.g.
    sensitivity partition sizes — take the neutral weight.
    """
    from repro.registry import scheme_cost_weight

    weight = scheme_cost_weight(family)
    return 1.0 if weight is None else weight


def runtime_hints_from_entries(
    entries: dict[str, JournalEntry]
) -> dict[Any, float]:
    """Mean computed wall-seconds by label and by (family, profile).

    Only ``computed`` entries count: hits/replays report ~zero wall and
    would drag an estimate toward "free". Two hint granularities are
    built from one pass:

    * exact cell label — real per-cell history, which orders cells of
      one family and profile (e.g. a slow mix ahead of a fast one);
    * ``(family, profile)`` — so a ``bench``-profile campaign never
      inherits stale full-profile means and misorders its cells
      (profiles differ in workload scale by orders of magnitude).
    """
    sums: dict[Any, list[float]] = {}
    for entry in entries.values():
        if entry.status != "computed":
            continue
        sums.setdefault(entry.label, []).append(entry.wall_seconds)
        if entry.profile is not None:
            sums.setdefault(
                (_cost_family(entry.label), entry.profile), []
            ).append(entry.wall_seconds)
    return {key: sum(walls) / len(walls) for key, walls in sums.items()}


def expected_cost(cell: Any, hints: dict[Any, float]) -> float:
    """Expected relative runtime of one cell, for dispatch ordering.

    Preference order: measured journal history — the cell's own label,
    then its (family, profile) — then the cell's own ``cost_hint()`` (if it defines one), then the static
    family weight table. Only the *ordering* matters — an inaccurate
    estimate degrades the dispatch order, never correctness, and the
    shared queue still hands every idle worker the next cell.
    """
    family = _cost_family(cell.label)
    hint = hints.get(cell.label)
    if hint is not None:
        return hint
    profile = getattr(cell, "profile", None)
    if profile is not None:
        hint = hints.get((family, profile.name))
        if hint is not None:
            return hint
    own = getattr(cell, "cost_hint", None)
    if own is not None:
        return float(own())
    return _family_weight(family)


# ----------------------------------------------------------------------
# Worker entry points (must be importable for multiprocessing)
# ----------------------------------------------------------------------
def _execute_cell(
    cell: Any,
    faults: FaultPlan | None = None,
    worker_id: int | None = None,
) -> tuple[Any, float]:
    """Run one cell in the current process; returns (value, wall_seconds).

    A :class:`StoreTask` runs under its own ``store.populate`` span and
    is never the ``REPRO_PROFILE`` capture.
    """
    if faults is not None:
        faults.on_cell_start(cell.label, worker_id)
    if isinstance(cell, StoreTask):
        start = time.perf_counter()
        cell.execute()
        return None, time.perf_counter() - start
    with obs_trace.span("cell.compute", label=cell.label, worker=worker_id):
        start = time.perf_counter()
        value = maybe_profile(cell.label, cell.execute, worker_id)
        return value, time.perf_counter() - start


def _cell_message(index, cell, faults, worker_id) -> tuple:
    """Run one dispatched cell; return its result message."""
    start = time.perf_counter()
    # Store/build/solve counters accumulate in *this* process's
    # registry; ship the per-cell delta home so the parent registry
    # (the one the exporters and telemetry read) accounts for work
    # wherever it ran.
    stats_before = store_stats_snapshot()
    try:
        value, wall = _execute_cell(cell, faults, worker_id)
        delta = store_stats_delta(stats_before, store_stats_snapshot())
        return (index, "ok", value, wall, delta)
    except Exception as exc:  # graceful degradation
        delta = store_stats_delta(stats_before, store_stats_snapshot())
        return (
            index,
            "error",
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - start,
            delta,
        )


def _heartbeat_loop(
    conn: multiprocessing.connection.Connection,
    send_lock: threading.Lock,
    stop: threading.Event,
    interval: float,
) -> None:
    """Heartbeat thread body: ship the progress counter home periodically.

    Each beat is ``("heartbeat", progress_value())`` — the supervisor
    compares successive values to distinguish a *slow* cell (counter
    advancing: simulation quanta are completing) from a *hung* one
    (beats arriving with a frozen counter, or no beats at all once even
    this thread is stopped). The thread runs as a daemon and exits on
    the first failed send: a broken pipe means the supervisor is gone.

    Note the limits of the evidence: Python threads share the GIL, so a
    C extension that blocks *without releasing the GIL* also silences
    the heartbeat — which is fine, because silence is treated exactly
    like frozen progress.
    """
    while not stop.wait(interval):
        try:
            with send_lock:
                conn.send(("heartbeat", progress_value()))
        except Exception:
            return


def _worker_main(
    conn: multiprocessing.connection.Connection,
    worker_id: int,
    faults: FaultPlan | None,
    heartbeat: float | None = None,
) -> None:
    """Worker loop: receive one ``(index, cell)`` task per message, send
    back its result message.

    Liveness: with ``heartbeat`` set, a daemon thread interleaves
    ``("heartbeat", progress)`` tuples with the result stream (the send
    lock keeps messages whole), so the supervisor can tell slow from
    hung *mid-cell* instead of waiting out the cell's deadline.

    SIGINT is ignored so a terminal Ctrl-C reaches only the supervisor,
    which then terminates workers deliberately (after flushing the
    journal) instead of racing N KeyboardInterrupts. SIGTERM is reset
    to its default action: a forked worker inherits the supervisor's
    flag-setting handler, which would make ``Process.terminate()`` a
    no-op and force the slow SIGKILL fallback when reaping hung workers.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    send_lock = threading.Lock()
    stop_beats = threading.Event()
    if heartbeat:
        threading.Thread(
            target=_heartbeat_loop,
            args=(conn, send_lock, stop_beats, heartbeat),
            daemon=True,
            name=f"repro-heartbeat-{worker_id}",
        ).start()
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                return
            if task is None:
                return
            message = _cell_message(*task, faults, worker_id)
            # A finished cell is progress even if the cell's own
            # execution never beat (non-simulation cells).
            progress_beat()
            try:
                with send_lock:
                    conn.send(message)
            except Exception as exc:  # e.g. an unpicklable result
                try:
                    with send_lock:
                        conn.send(
                            (
                                message[0],
                                "error",
                                "result not transferable: "
                                f"{type(exc).__name__}: {exc}",
                                message[3],
                                message[4],
                            )
                        )
                except Exception:
                    return
    finally:
        stop_beats.set()


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Supervisor-side handle for one worker process."""

    process: Any
    conn: multiprocessing.connection.Connection
    id: int
    #: The in-flight ``(index, cell, key)``; ``None`` when idle.
    task: tuple[int, Any, str] | None = None
    started: float = 0.0
    deadline: float | None = None
    #: When the last heartbeat (or result/dispatch) was observed.
    last_beat: float = 0.0
    #: Progress counter carried by the last heartbeat. Starts at 0 (the
    #: counter of a fresh process), so a first cell that never advances
    #: is correctly seen as frozen rather than as one unit of progress.
    last_progress: int = 0
    #: When progress was first observed frozen (None = progressing).
    stall_since: float | None = None
    #: The ``worker.unresponsive`` warning fired for the current stall.
    unresponsive_fired: bool = False


class _Supervisor:
    """Owns the worker pool for one parallel engine run.

    Unlike the former round-barrier ``Pool.apply_async`` loop, tasks are
    assigned to dedicated workers with per-task deadlines: a hung or
    crashed worker is killed and respawned immediately, its task is
    rescheduled with backoff, and every other slot keeps streaming cells
    — no failure can stall the round or leak a pool slot.

    Scheduling: pending cells wait on one shared queue in
    longest-expected-first order (LPT, using journal runtime hints),
    and every dispatch sends one cell. Every idle worker takes the
    front cell, so the expensive work starts first and the cheap tail
    fills whichever workers free up — one straggler cannot serialize
    the end of a campaign behind a static per-worker placement.
    Backed-off retries live in the retry ``queue`` and take priority
    over unstarted cells. Outcomes are bit-identical to serial
    execution.

    Store tasks: the R_max tables the engine hands over (``store_tasks``)
    are solved on workers, each as one :class:`StoreTask` dispatched
    before any cell. A cell whose needs name a table waits (``gates``)
    until its task has stored that table; cells that need no table fill
    the other slots meanwhile. Tasks take indices below zero, retry under
    the cell policy and never yield an outcome; a task that finally
    fails still opens its gate — each waiting cell then solves the table
    on its own store miss.
    """

    #: How long one poll of the worker pipes blocks, seconds. Bounds
    #: both deadline-detection latency and interrupt responsiveness.
    POLL_SECONDS = 0.1

    def __init__(
        self,
        engine: "ExecutionEngine",
        pending,
        store_tasks: Sequence[tuple] = (),
        gates: dict[int, frozenset] | None = None,
    ):
        self.engine = engine
        self.context = multiprocessing.get_context()
        # (index, cell, key, ready_at): store tasks (ready at once, so
        # they go before any unstarted cell) and backed-off retries;
        # ready_at defers each retry until its backoff has elapsed.
        tasks = [
            (-1 - number, task, task.label)
            for number, task in enumerate(map(StoreTask, store_tasks))
        ]
        self.queue: deque[tuple[int, Any, str, float]] = deque(
            (*task, 0.0) for task in tasks
        )
        every = [*pending, *tasks]
        self.attempts = {index: 0 for index, _, _ in every}
        #: Cumulative elapsed seconds per cell across all its attempts —
        #: crashed/hung/failed attempts included, so telemetry no longer
        #: undercounts failed cells as zero-cost.
        self.elapsed = {index: 0.0 for index, _, _ in every}
        self.slots = min(engine.jobs, len(pending))
        self.hints = engine._runtime_hints()
        self._enqueue(pending, gates)
        #: Per-cell count of attempts that ended in a worker *death*
        #: (crash / deadline kill / stall kill) rather than a reported
        #: error — the poison circuit breaker's evidence.
        self.deaths = {index: 0 for index, _, _ in every}
        # Liveness policy, derived once. A stall kill needs an explicit
        # mandate: either the engine's stall_timeout, or a per-cell
        # timeout to bound it by — heartbeats alone never license
        # killing, because cells that do not instrument progress (no
        # simulation quanta) would look permanently stalled.
        hb = engine.heartbeat
        self._stall_kill: float | None = None
        self._unresponsive_after: float | None = None
        if hb:
            if engine.stall_timeout is not None:
                self._stall_kill = engine.stall_timeout
            elif engine.timeout is not None:
                self._stall_kill = min(
                    engine.timeout, max(5.0 * hb, 2.0)
                )
            self._unresponsive_after = 3.0 * hb
            if self._stall_kill is not None:
                self._unresponsive_after = min(
                    self._unresponsive_after, 0.6 * self._stall_kill
                )
        self._next_worker_id = 0
        if self.context.get_start_method() == "fork":
            # Tables a store task will solve must not be solved here.
            # This import (and the warming below) also loads the
            # simulator the workers run, so each forked worker inherits
            # it instead of importing it after the fork
            # (tests/harness/test_startup.py).
            from repro.schemes.untangle import unsolved_rate_tables

            with unsolved_rate_tables() if tasks else nullcontext():
                self._prefork_warm(pending)
        self.workers = [self._spawn() for _ in range(self.slots)]

    def _prefork_warm(self, pending) -> None:
        """Warm shareable per-cell precompute before the workers fork.

        Cell types may expose ``prefork_warm(cells)`` to walk precompute
        that is a pure function of the cell inputs (e.g. the L1 service
        traces mix cells share). Doing it here, in the parent, makes
        the warmed state copy-on-write-inherited by every worker instead
        of recomputed per worker. Best-effort: a warming failure only
        forfeits the head start, never the run.
        """
        by_type: dict[type, list] = {}
        for _, cell, _ in pending:
            if getattr(type(cell), "prefork_warm", None) is not None:
                by_type.setdefault(type(cell), []).append(cell)
        for cell_type, cells in by_type.items():
            try:
                warmed = cell_type.prefork_warm(cells)
            except Exception as exc:  # noqa: BLE001 - warming is optional
                obs_trace.event(
                    "warm.failed", cell_type=cell_type.__name__, error=str(exc)
                )
            else:
                obs_trace.event(
                    "warm.prefork", cell_type=cell_type.__name__, warmed=warmed
                )

    def _enqueue(
        self, pending, gates: dict[int, frozenset] | None = None
    ) -> None:
        """Queue ``pending`` cells longest-expected-first.

        ``self.unstarted`` holds the never-dispatched cells in
        non-increasing expected cost (the LPT order); every idle worker
        takes from the front. The sort is stable, so equal-cost cells
        keep their input order — without journal history every cell of
        a family ties, and dispatch then follows the campaign's order.
        Cells named in ``gates`` wait in ``self.gated``, in the same
        order, until :meth:`_open_gate` has seen every need they wait
        for.
        """
        #: Store needs each held-back cell still waits for.
        self.gates = {
            index: set(needs) for index, needs in (gates or {}).items()
        }
        ordered = sorted(
            pending,
            key=lambda task: expected_cost(task[1], self.hints),
            reverse=True,
        )
        self.rank = {task[0]: rank for rank, task in enumerate(ordered)}
        self.unstarted: deque[tuple[int, Any, str]] = deque(
            task for task in ordered if task[0] not in self.gates
        )
        self.gated = [task for task in ordered if task[0] in self.gates]

    def _open_gate(self, need: tuple) -> None:
        """Release the cells that waited only for ``need`` into the queue."""
        released = []
        for task in self.gated:
            self.gates[task[0]].discard(need)
            if not self.gates[task[0]]:
                released.append(task)
        if released:
            self.gated = [task for task in self.gated if self.gates[task[0]]]
            self.unstarted = deque(
                sorted(
                    [*self.unstarted, *released],
                    key=lambda task: self.rank[task[0]],
                )
            )

    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self.context.Process(
            target=_worker_main,
            args=(
                child_conn,
                worker_id,
                self.engine.faults,
                self.engine.heartbeat,
            ),
            daemon=True,
            name=f"repro-exec-{worker_id}",
        )
        process.start()
        child_conn.close()
        return _Worker(
            process=process,
            conn=parent_conn,
            id=worker_id,
            last_beat=time.monotonic(),
        )

    def _reap(self, worker: _Worker) -> None:
        """Tear one worker down for good (terminate if still alive)."""
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
        else:
            worker.process.join()
        try:
            worker.conn.close()
        except OSError:
            pass

    def _replace(self, worker: _Worker) -> None:
        """Kill a crashed/hung worker and spawn its replacement."""
        self._reap(worker)
        self.workers.remove(worker)
        # A replacement is always useful: the failed task is about to be
        # requeued by the caller (or other tasks are still queued), and
        # spawning is cheap next to multi-second simulation cells.
        self.workers.append(self._spawn())
        self.engine.telemetry.workers_respawned += 1
        _M_WORKER["respawn"].inc()
        obs_trace.event("worker.respawn", worker=worker.id)

    # ------------------------------------------------------------------
    def run(self) -> Iterator[tuple[int, CellOutcome]]:
        try:
            while self._work_remaining() or any(
                w.task is not None for w in self.workers
            ):
                if self.engine._interrupted:
                    raise KeyboardInterrupt
                yield from self._assign()
                yield from self._collect()
        finally:
            self._shutdown()

    def _work_remaining(self) -> bool:
        return bool(self.queue or self.unstarted or self.gated)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _next_task(self, now: float):
        """The next cell for an idle worker, or ``None``.

        A store task, or a backed-off retry whose delay has elapsed
        (strictly older work), goes first; otherwise the front — most
        expensive — unstarted cell.
        """
        for position, task in enumerate(self.queue):
            if task[3] <= now:
                del self.queue[position]
                return task[:3]
        if self.unstarted:
            return self.unstarted.popleft()
        return None

    def _assign(self) -> Iterator[tuple[int, CellOutcome]]:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.task is not None:
                continue
            task = self._next_task(now)
            if task is None:
                continue
            yield from self._dispatch(worker, task)

    def _dispatch(
        self, worker: _Worker, task: tuple[int, Any, str]
    ) -> Iterator[tuple[int, CellOutcome]]:
        """Send one cell to an idle worker; handle a dead one in place.

        The attempt is booked and the deadline armed before the send.
        The stall clock restarts too: the dispatch itself is the most
        recent sign of life.
        """
        index, cell, _ = task
        now = time.monotonic()
        self.attempts[index] += 1
        obs_trace.event(
            "store.dispatch" if index < 0 else "cell.dispatch",
            label=cell.label,
            worker=worker.id,
            attempt=self.attempts[index],
        )
        worker.task = task
        worker.started = now
        worker.deadline = (
            now + self.engine.timeout
            if self.engine.timeout is not None
            else None
        )
        worker.last_beat = now
        worker.stall_since = None
        worker.unresponsive_fired = False
        try:
            worker.conn.send((index, cell))
        except (OSError, ValueError):
            # The worker (or its pipe) is already dead: one crash,
            # booked here, and never also a timeout.
            yield from self._lose_worker(
                worker,
                "crash",
                "worker died before dispatch",
                exitcode=worker.process.exitcode,
            )

    def _lose_worker(
        self, worker: _Worker, kind: str, error: str, **attrs: Any
    ) -> Iterator[tuple[int, CellOutcome]]:
        """Book a worker lost mid-cell, replace it, and fail the attempt.

        ``kind`` is ``"crash"`` (booked in ``worker_crashes``, event
        ``worker.crash``), ``"timeout"`` (``worker_timeouts``,
        ``worker.timeout``) or ``"stall-kill"`` (``worker_timeouts``,
        ``worker.stall-kill``); ``attrs`` extend the event. The task
        and deadline are cleared first, so no later sweep can book the
        same cell again.
        """
        index, cell, key = worker.task
        worker.task = None
        worker.deadline = None
        self.elapsed[index] += time.monotonic() - worker.started
        if kind == "crash":
            self.engine.telemetry.worker_crashes += 1
            _M_WORKER["crash"].inc()
        else:
            self.engine.telemetry.worker_timeouts += 1
            _M_WORKER["timeout"].inc()
        obs_trace.event(
            f"worker.{kind}", worker=worker.id, label=cell.label, **attrs
        )
        self._replace(worker)
        yield from self._attempt_failed(
            index, cell, key, error, worker_died=True
        )

    def _collect(self) -> Iterator[tuple[int, CellOutcome]]:
        handles: dict[Any, _Worker] = {}
        for worker in self.workers:
            handles[worker.conn] = worker
            handles[worker.process.sentinel] = worker
        ready = multiprocessing.connection.wait(
            list(handles), timeout=self.POLL_SECONDS
        )
        serviced: set[int] = set()
        for handle in ready:
            worker = handles[handle]
            if worker.id in serviced or worker not in self.workers:
                continue
            serviced.add(worker.id)
            yield from self._service(worker)
        now = time.monotonic()
        for worker in list(self.workers):
            if (
                worker.task is not None
                and worker.deadline is not None
                and now > worker.deadline
                and worker.id not in serviced
            ):
                yield from self._lose_worker(
                    worker,
                    "timeout",
                    f"timeout after {self.engine.timeout:.1f}s "
                    "(worker killed)",
                    timeout=self.engine.timeout,
                )
        if self._unresponsive_after is not None:
            yield from self._stall_sweep(now, serviced)

    def _stalled_for(self, worker: _Worker, now: float) -> float:
        """Seconds of stall evidence against a worker's current cell.

        Two independent signals, strongest wins: the progress counter
        has been frozen across heartbeats since ``stall_since``, or the
        pipe has been *silent* well past the beat interval (the process
        is stopped, wedged in a non-GIL-releasing call, or its beat
        thread is dead) — silence only starts counting once it exceeds
        two intervals, so ordinary scheduling jitter never registers.
        """
        frozen = (
            now - worker.stall_since if worker.stall_since is not None else 0.0
        )
        silent = now - worker.last_beat
        if silent <= 2.0 * (self.engine.heartbeat or 0.0):
            silent = 0.0
        return max(frozen, silent)

    def _stall_sweep(
        self, now: float, serviced: set[int]
    ) -> Iterator[tuple[int, CellOutcome]]:
        """Escalate workers whose heartbeats show no progress.

        First ``worker.unresponsive`` — an early warning fired well
        before any kill, so operators watching the trace see a hang
        forming instead of discovering it a full deadline later. Then,
        if stall kills are licensed (see ``__init__``), the worker is
        killed at ``_stall_kill`` seconds of evidence, which can come
        well before the cell's deadline.
        """
        for worker in list(self.workers):
            if worker.task is None or worker.id in serviced:
                continue
            if worker not in self.workers:
                continue
            stalled = self._stalled_for(worker, now)
            if (
                not worker.unresponsive_fired
                and stalled >= self._unresponsive_after
            ):
                worker.unresponsive_fired = True
                self.engine.telemetry.worker_unresponsive += 1
                _M_WORKER["unresponsive"].inc()
                obs_trace.event(
                    "worker.unresponsive",
                    worker=worker.id,
                    label=worker.task[1].label,
                    stalled_seconds=round(stalled, 3),
                    progress=worker.last_progress,
                )
            if self._stall_kill is not None and stalled >= self._stall_kill:
                yield from self._lose_worker(
                    worker,
                    "stall-kill",
                    f"no progress for {stalled:.1f}s despite heartbeats "
                    "(worker killed)",
                    stalled_seconds=round(stalled, 3),
                )

    def _note_beat(self, worker: _Worker, progress: int) -> None:
        """Fold one heartbeat into the worker's liveness state.

        Advancing progress is proof of life: it clears the stall clock
        and — when a per-cell timeout is set — extends the deadline, so
        the timeout bounds *inactivity* rather than total runtime and a
        slow-but-working cell is never killed mid-computation. A frozen
        counter starts the stall clock; the sweep in :meth:`_collect`
        escalates it to a warning and (policy permitting) a kill.
        """
        now = time.monotonic()
        worker.last_beat = now
        if progress > worker.last_progress:
            worker.last_progress = progress
            worker.stall_since = None
            worker.unresponsive_fired = False
            if worker.task is not None and self.engine.timeout is not None:
                worker.deadline = now + self.engine.timeout
        elif worker.stall_since is None:
            worker.stall_since = now

    def _service(self, worker: _Worker) -> Iterator[tuple[int, CellOutcome]]:
        """Handle a worker whose pipe or sentinel became ready.

        Heartbeats are drained greedily (they only update liveness
        state); at most one *result* is consumed per call, preserving
        the one-result-per-service accounting the rest of the
        supervisor is built around.
        """
        message = None
        try:
            while worker.conn.poll():
                received = worker.conn.recv()
                if (
                    isinstance(received, tuple)
                    and received
                    and received[0] == "heartbeat"
                ):
                    self._note_beat(worker, received[1])
                    continue
                message = received
                break
        except (EOFError, OSError):
            message = None
        if message is not None:
            index, status, payload, wall, stats_delta = message
            apply_store_stats_delta(stats_delta)
            assert worker.task is not None and worker.task[0] == index
            _, cell, key = worker.task
            worker.task = None
            worker.deadline = None
            self.elapsed[index] += wall
            if status == "ok" and index < 0:
                obs_trace.event("store.ready", label=cell.label)
                self._open_gate(cell.need)
            elif status == "ok":
                yield index, CellOutcome(
                    cell=cell,
                    key=key,
                    value=payload,
                    status="computed",
                    wall_seconds=self.elapsed[index],
                    attempts=self.attempts[index],
                    error=None,
                )
            else:
                yield from self._attempt_failed(index, cell, key, payload)
            return
        if worker.process.is_alive():
            return  # spurious wakeup
        if worker.task is None:
            # An idle worker died (infant mortality): just replace it.
            self._replace(worker)
            return
        exitcode = worker.process.exitcode
        yield from self._lose_worker(
            worker,
            "crash",
            f"worker crashed (exit code {exitcode})",
            exitcode=exitcode,
        )

    def _attempt_failed(
        self,
        index: int,
        cell: Any,
        key: str,
        error: str,
        *,
        worker_died: bool = False,
    ) -> Iterator[tuple[int, CellOutcome]]:
        """Book one failed attempt: retry with backoff, or give up.

        ``worker_died`` marks attempts that took their worker down with
        them (crash, deadline kill, stall kill). A cell whose *every*
        attempt killed a worker is quarantined as ``poisoned`` rather
        than merely ``failed``: the evidence says retrying it again
        would only shoot more workers, so the circuit breaker trips,
        the rest of the campaign completes, and the journal entry
        ensures a ``--resume`` re-attempts exactly this cell.

        A store task retries the same way; once out of attempts it
        yields nothing and opens its gate (``store.failed``).
        """
        kind = "store" if index < 0 else "cell"
        if worker_died:
            self.deaths[index] += 1
        if self.attempts[index] <= self.engine.retries:
            delay = backoff_delay(
                key,
                self.attempts[index],
                self.engine.backoff_base,
                self.engine.backoff_cap,
            )
            self.engine.telemetry.backoff_seconds += delay
            _M_BACKOFF.inc(delay)
            obs_trace.event(
                f"{kind}.retry",
                label=cell.label,
                attempt=self.attempts[index],
                delay=delay,
                error=error,
            )
            self.queue.append((index, cell, key, time.monotonic() + delay))
            return
        if index < 0:
            obs_trace.event(
                "store.failed",
                label=cell.label,
                attempts=self.attempts[index],
                error=error,
            )
            self._open_gate(cell.need)
            return
        poisoned = (
            self.deaths[index] > 0
            and self.deaths[index] == self.attempts[index]
        )
        if poisoned:
            obs_trace.event(
                "cell.poisoned",
                label=cell.label,
                attempts=self.attempts[index],
                error=error,
            )
        yield index, CellOutcome(
            cell=cell,
            key=key,
            value=None,
            status="poisoned" if poisoned else "failed",
            wall_seconds=self.elapsed[index],
            attempts=self.attempts[index],
            error=error,
        )

    def _shutdown(self) -> None:
        for worker in self.workers:
            if worker.task is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)  # polite stop for idle workers
                except (OSError, ValueError):
                    pass
            else:
                worker.process.terminate()
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        self.workers = []


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ExecutionEngine:
    """Fan simulation cells out over a supervised process pool.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (the default) executes serially in the
        calling process — the debugging fallback — but still consults
        the cache and journal. Results are bit-identical either way.
    cache:
        Optional :class:`ResultCache`; ``None`` disables caching.
    timeout:
        Per-cell deadline in seconds (parallel mode only: a serial run
        cannot preempt the simulation it is executing). A worker past
        its deadline is killed and respawned. ``None`` waits forever.
        With heartbeats on, the deadline is *extended* whenever a beat
        shows advancing progress: it bounds inactivity, not runtime, so
        slow-but-working cells survive while hung ones die early.
    heartbeat:
        Interval in seconds of worker liveness heartbeats (default 1).
        Each beat carries the worker's progress counter (advanced per
        simulation quantum and per finished cell), letting the
        supervisor distinguish slow from hung mid-cell: frozen
        progress fires a ``worker.unresponsive`` warning after ~3
        intervals, and — when a ``timeout`` or ``stall_timeout``
        licenses killing — a stall kill, which can land before the
        cell's deadline. ``0``/``None`` disables heartbeats.
    stall_timeout:
        Seconds of frozen progress after which a stalled worker is
        killed (requires ``heartbeat``). Defaults to
        ``min(timeout, max(5 * heartbeat, 2.0))`` when a timeout is
        set; without either, stalls only warn — heartbeats alone never
        license killing, because cells that do not instrument progress
        would look permanently stalled.
    retries:
        How many times a failed, crashed, or timed-out cell is
        re-attempted (default one retry).
    backoff_base / backoff_cap:
        Exponential-backoff schedule for those retries: attempt ``n``
        is delayed ``base * 2**(n-1)`` seconds (capped), with
        deterministic jitter — see :func:`backoff_delay`.
    journal:
        Optional :class:`RunJournal`; every finished cell is durably
        appended before being reported.
    resume:
        Replay journaled outcomes instead of re-running them; only
        cells absent from (or failed in) the journal execute.
    faults:
        Optional :class:`FaultPlan` for chaos testing.
    progress:
        Optional callback receiving one structured line per finished
        cell, e.g. ``print`` or a logger method.
    store:
        Optional :class:`~repro.harness.store.PrecomputeStore`. Before
        cells fan out, every distinct artifact the pending cells declare
        via ``store_needs()`` is precomputed once (``store.populate``,
        traced as a ``store.populate`` span); workers then attach
        zero-copy instead of regenerating. With ``jobs > 1`` an R_max
        table the store lacks is solved on a pool worker instead (one
        :class:`StoreTask` per table) while cells that need no table
        run. The store's in-process
        attachments are released when the run exits — the SIGINT path
        included. ``None`` disables the layer; results are
        bit-identical either way. Independent of ``cache``: the *result*
        cache memoizes finished cells, the store memoizes the expensive
        *inputs* of cells that do run.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        *,
        timeout: float | None = None,
        heartbeat: float | None = 1.0,
        stall_timeout: float | None = None,
        retries: int = 1,
        backoff_base: float = 0.05,
        backoff_cap: float = 30.0,
        journal: RunJournal | None = None,
        resume: bool = False,
        faults: FaultPlan | None = None,
        progress: Callable[[str], None] | None = None,
        store: PrecomputeStore | None = None,
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if heartbeat is not None and heartbeat < 0:
            raise ConfigurationError("heartbeat must be >= 0")
        heartbeat = heartbeat or None  # 0 disables, like REPRO_HEARTBEAT=0
        if stall_timeout is not None and stall_timeout <= 0:
            raise ConfigurationError("stall_timeout must be positive")
        if stall_timeout is not None and heartbeat is None:
            raise ConfigurationError(
                "stall_timeout requires heartbeats (heartbeat > 0)"
            )
        if backoff_base < 0 or backoff_cap < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.heartbeat = heartbeat
        self.stall_timeout = stall_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.journal = journal
        self.resume = resume
        self.faults = faults
        self.progress = progress
        self.store = store
        self.telemetry = EngineTelemetry()
        #: Path of the failure manifest rendered by the last run, if any.
        self.manifest_path: Path | None = None
        self._interrupted = False
        self._serial_mode = True
        self._campaign: str | None = None
        self._old_handlers: dict[int, Any] = {}
        #: Finished cells whose journal record is not yet fsync'd
        #: (group commit): the ack — the progress line that marks a
        #: cell resume-skippable — is held until its sequence number is
        #: durable. (outcome, done, total, seq), FIFO by seq.
        self._pending_acks: deque[tuple[CellOutcome, int, int, int]] = deque()

    # ------------------------------------------------------------------
    # Signal handling (graceful shutdown)
    # ------------------------------------------------------------------
    def _install_signals(self) -> None:
        self._interrupted = False
        self._old_handlers = {}
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[signum] = signal.signal(
                    signum, self._on_signal
                )
            except (ValueError, OSError):
                pass

    def _restore_signals(self) -> None:
        for signum, handler in self._old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        self._old_handlers = {}

    def _on_signal(self, signum, frame) -> None:
        if self._interrupted:
            # Second signal: the user means it — die with default action.
            try:
                signal.signal(signum, signal.SIG_DFL)
            except (ValueError, OSError):
                pass
            os.kill(os.getpid(), signum)
            return
        self._interrupted = True
        if self._serial_mode:
            # Serial execution has no supervisor loop polling the flag;
            # unwind the in-flight cell now (run() converts this to a
            # clean CampaignInterrupted after flushing state).
            raise KeyboardInterrupt

    # ------------------------------------------------------------------
    def _emit(self, outcome: CellOutcome, done: int, total: int) -> None:
        if self.progress is None:
            return
        cycles = outcome.cell.cycles_of(outcome.value) if outcome.ok else None
        parts = [
            f"[exec {done}/{total}]",
            outcome.cell.label,
            f"status={outcome.status}",
            f"wall={outcome.wall_seconds:.2f}s",
        ]
        if cycles is not None:
            parts.append(f"cycles={cycles}")
        if outcome.attempts > 1:
            parts.append(f"attempts={outcome.attempts}")
        if outcome.error:
            parts.append(f"error={outcome.error}")
        self.progress(" ".join(parts))

    def _degrade(self, subsystem: str, error: Exception) -> None:
        """Downgrade one I/O subsystem after a write failure.

        A full or failing disk under the journal, result cache, or
        precompute store must cost *durability* (no resume, no memoized
        results, no shared inputs), never the campaign itself — hours
        of surviving simulation work would be lost to an error in a
        bookkeeping layer. The first failure per subsystem is recorded
        in telemetry (``degraded:`` lines), metrics
        (``repro_degraded_total``), the trace (``degraded`` event and
        an ``engine.run`` span attribute), and the progress stream;
        subsequent writes to that subsystem are skipped.
        """
        if subsystem in self.telemetry.degraded:
            return
        detail = f"{type(error).__name__}: {error}"
        self.telemetry.degraded[subsystem] = detail
        _M_DEGRADED[subsystem].inc()
        obs_trace.event("degraded", subsystem=subsystem, error=detail)
        consequence = {
            "journal": "campaign continues WITHOUT crash recovery "
            "(--resume will re-run cells finished from here on)",
            "cache": "campaign continues compute-only "
            "(results from here on are not memoized)",
            "store": "campaign continues compute-only "
            "(workers rebuild inputs instead of attaching)",
        }[subsystem]
        if self.progress is not None:
            self.progress(f"[exec] degraded: {subsystem} — {detail}; {consequence}")

    def _check_io(self, subsystem: str) -> None:
        """Raise any injected I/O fault armed for ``subsystem``."""
        if self.faults is not None:
            self.faults.check_io(subsystem)

    def _finish(
        self, outcome: CellOutcome, done: int, total: int
    ) -> CellOutcome:
        cycles = (
            outcome.cell.cycles_of(outcome.value)
            if outcome.status == "computed"
            else None
        )
        self.telemetry.note(
            CellRecord(
                label=outcome.cell.label,
                status=outcome.status,
                wall_seconds=outcome.wall_seconds,
                attempts=outcome.attempts,
                cycles=cycles,
                error=outcome.error,
            )
        )
        if (
            outcome.status == "computed"
            and self.cache is not None
            and "cache" not in self.telemetry.degraded
        ):
            try:
                self._check_io("cache")
                self.cache.put(
                    outcome.key,
                    {
                        "cell": outcome.cell.cache_token(),
                        "value": outcome.cell.encode(outcome.value),
                        "wall_seconds": outcome.wall_seconds,
                    },
                )
            except OSError as exc:
                self._degrade("cache", exc)
            else:
                if self.faults is not None and self.faults.should_corrupt(
                    outcome.cell.label
                ):
                    self.cache.corrupt_entry(outcome.key)
        seq: int | None = None
        if (
            self.journal is not None
            and outcome.status != "replayed"
            and "journal" not in self.telemetry.degraded
        ):
            try:
                self._check_io("journal")
                seq = self.journal.record(
                    JournalEntry(
                        key=outcome.key,
                        label=outcome.cell.label,
                        status=outcome.status,
                        wall_seconds=outcome.wall_seconds,
                        attempts=outcome.attempts,
                        campaign=self._campaign,
                        value=(
                            outcome.cell.encode(outcome.value)
                            if outcome.ok
                            else None
                        ),
                        error=outcome.error,
                        profile=getattr(
                            getattr(outcome.cell, "profile", None), "name", None
                        ),
                    )
                )
            except (OSError, JournalError) as exc:
                self._degrade("journal", exc)
                # Durability is waived from here on; release any held
                # acks — the lines were honest when their cells ran.
                self._drain_acks(force=True)
        if seq is not None:
            # Ack-after-fsync: the progress line (the ack that marks
            # this cell done and resume-skippable) waits for the
            # group commit covering its journal record. With the
            # default batch of 1 the record is already durable and the
            # ack is emitted immediately, as before.
            self._pending_acks.append((outcome, done, total, seq))
            self._drain_acks()
        else:
            self._drain_acks(force=self.journal is None)
            self._emit(outcome, done, total)
        return outcome

    def _drain_acks(self, force: bool = False) -> None:
        """Emit held progress lines whose journal records are durable.

        ``force=True`` (teardown after a final flush, or journal
        degradation) releases everything: at that point either the
        records are on disk or durability is no longer promised.
        """
        if not self._pending_acks:
            return
        durable = self.journal.durable_seq if self.journal is not None else 0
        while self._pending_acks:
            outcome, done, total, seq = self._pending_acks[0]
            if not force and seq > durable:
                break
            self._pending_acks.popleft()
            self._emit(outcome, done, total)

    def _replay(self, cell: Any, key: str, entry: JournalEntry) -> Any | None:
        """Decode a journaled result, or ``None`` if it is unusable."""
        if not entry.ok or entry.value is None:
            return None
        try:
            return cell.decode(entry.value)
        except Exception:
            return None

    def _runtime_hints(self) -> dict[Any, float]:
        """Runtime estimates from journal history, if any (per label
        and per (family, profile)).

        Feeds the supervisor's longest-first ordering; an empty dict (no
        journal, fresh journal, unreadable journal) falls back to the
        static family weights — scheduling quality degrades, never
        correctness.
        """
        if self.journal is None:
            return {}
        try:
            return runtime_hints_from_entries(self.journal.load())
        except Exception:
            return {}

    # ------------------------------------------------------------------
    # Failure manifest
    # ------------------------------------------------------------------
    def _manifest_target(self) -> Path | None:
        if self.journal is not None:
            return Path(self.journal.path).parent / MANIFEST_NAME
        if self.cache is not None:
            return Path(self.cache.directory) / MANIFEST_NAME
        return None

    def _write_manifest(
        self, outcomes: list[CellOutcome | None], total: int
    ) -> None:
        """Render ``failures.json`` next to the journal after a run.

        Written when any cell ended ``failed``/``poisoned`` (and on a
        fully clean run any stale manifest from a previous campaign is
        removed, so its presence is a reliable signal). Interrupted
        runs skip it: their story is the journal plus the resume hint.
        The write is atomic and failure-tolerant — a manifest must
        never be able to take down the campaign it reports on.
        """
        target = self._manifest_target()
        if target is None:
            return
        failing = [o for o in outcomes if o is not None and not o.ok]
        if not failing:
            try:
                target.unlink()
            except OSError:
                pass
            self.manifest_path = None
            return
        manifest = {
            "format": MANIFEST_FORMAT_VERSION,
            "campaign": self._campaign,
            "total": total,
            "failed": sum(1 for o in failing if o.status == "failed"),
            "poisoned": sum(1 for o in failing if o.status == "poisoned"),
            "degraded": dict(self.telemetry.degraded),
            "cells": [
                {
                    "label": o.cell.label,
                    "key": o.key,
                    "status": o.status,
                    "attempts": o.attempts,
                    "wall_seconds": o.wall_seconds,
                    "error": o.error,
                }
                for o in failing
            ],
            "resume": (
                "re-run with --resume (or REPRO_RESUME=1) to re-attempt "
                "exactly these cells"
                if self.journal is not None
                else "no journal attached; a re-run re-attempts uncached cells"
            ),
        }
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(target, json.dumps(manifest, indent=2))
        except OSError:
            return
        self.manifest_path = target
        obs_trace.event(
            "manifest.written",
            path=str(target),
            failed=manifest["failed"],
            poisoned=manifest["poisoned"],
        )

    # ------------------------------------------------------------------
    def run(
        self, cells: Sequence[Any], *, campaign: str | None = None
    ) -> list[CellOutcome]:
        """Execute every cell; outcomes come back in input order.

        On SIGINT/SIGTERM the run shuts down cleanly — journal flushed,
        workers terminated — and raises
        :class:`~repro.errors.CampaignInterrupted` carrying the
        outcomes that completed.
        """
        start = time.perf_counter()
        total = len(cells)
        outcomes: list[CellOutcome | None] = [None] * total
        done = 0
        self._campaign = campaign
        self._pending_acks.clear()
        if self.journal is not None and self.journal.faults is None:
            # The group-commit crash window (journal-batch-crash) fires
            # inside the journal's flush; hand it this run's plan.
            self.journal.faults = self.faults
        run_span = obs_trace.span(
            "engine.run",
            campaign=campaign,
            jobs=self.jobs,
            cells=total,
        )
        run_span.__enter__()
        journaled = (
            self.journal.load()
            if (self.journal is not None and self.resume)
            else {}
        )
        quarantined_before = self.cache.quarantined if self.cache else 0
        stats_before = store_stats_snapshot()
        reset_claim()  # each campaign gets one REPRO_PROFILE capture
        # Startup hygiene: reclaim fault-state dirs a SIGKILL'd previous
        # run could not tear down (owner-PID probed, so concurrent live
        # campaigns are never touched).
        reap_orphans()
        self.manifest_path = None
        self._install_signals()
        # Cells see exactly this engine's store (or none) for the run.
        scope = store_scope(self.store)
        scope.__enter__()
        try:
            pending: list[tuple[int, Any, str]] = []
            for index, cell in enumerate(cells):
                key = cell_key(cell)
                entry = journaled.get(key)
                if entry is not None:
                    value = self._replay(cell, key, entry)
                    if value is not None:
                        done += 1
                        with obs_trace.span("cell.replayed", label=cell.label):
                            outcomes[index] = self._finish(
                                CellOutcome(
                                    cell=cell,
                                    key=key,
                                    value=value,
                                    status="replayed",
                                    wall_seconds=0.0,
                                    attempts=0,
                                ),
                                done,
                                total,
                            )
                        continue
                payload = self.cache.get(key) if self.cache is not None else None
                if payload is not None:
                    done += 1
                    with obs_trace.span("cell.hit", label=cell.label):
                        outcomes[index] = self._finish(
                            CellOutcome(
                                cell=cell,
                                key=key,
                                value=cell.decode(payload["value"]),
                                status="hit",
                                wall_seconds=0.0,
                                attempts=0,
                            ),
                            done,
                            total,
                        )
                else:
                    pending.append((index, cell, key))

            store_tasks: list[tuple] = []
            gates: dict[int, frozenset] = {}
            if pending and self.store is not None:
                # Populate-before-fan-out: every distinct artifact the
                # pending cells declare is computed exactly once here,
                # then served zero-copy to serial cells, forked workers
                # (inherited mapping), and spawned/respawned workers
                # (reattach via REPRO_STORE_DIR). An I/O error
                # (full/failing disk) downgrades the run to compute-only
                # — workers rebuild inputs — instead of aborting it.
                try:
                    self._check_io("store")
                    cell_needs: dict[int, list[tuple]] = {}
                    for index, cell, _ in pending:
                        hook = getattr(cell, "store_needs", None)
                        if hook is not None:
                            cell_needs[index] = [tuple(n) for n in hook()]
                    needs = [n for group in cell_needs.values() for n in group]
                    if self.jobs > 1:
                        # The one branch point of the R_max solve: with a
                        # pool and a working store, each table the store
                        # lacks is solved on a worker while cells that
                        # need no table run; everywhere else (serial, no
                        # store, degraded store) the tables are solved
                        # in this process before any fork.
                        store_tasks = self.store.unsolved_tables(needs)
                        needs = [n for n in needs if n not in store_tasks]
                        gates = {
                            index: frozenset(group).intersection(store_tasks)
                            for index, group in cell_needs.items()
                            if not frozenset(group).isdisjoint(store_tasks)
                        }
                    if needs:
                        with obs_trace.span(
                            "store.populate",
                            store=self.store.describe(),
                            needs=len(needs),
                        ) as populate_span:
                            ensured = self.store.populate(needs)
                            populate_span.set(distinct=ensured)
                except OSError as exc:
                    self._degrade("store", exc)
                    # Detach so neither this process nor any (re)spawned
                    # worker keeps hitting the failing backend.
                    detach_store()
                    store_tasks, gates = [], {}

            if pending:
                if self.jobs == 1:
                    self._serial_mode = True
                    runner = self._run_serial(pending)
                else:
                    self._serial_mode = False
                    runner = _Supervisor(
                        self, pending, store_tasks, gates
                    ).run()
                for index, outcome in runner:
                    done += 1
                    outcomes[index] = self._finish(outcome, done, total)
        except KeyboardInterrupt:
            self.telemetry.interrupted = True
            completed = [o for o in outcomes if o is not None]
            journal_path = self.journal.path if self.journal else None
            hint = (
                f"campaign interrupted with {done}/{total} cells finished"
            )
            if journal_path is not None:
                hint += (
                    f"; completed cells are journaled at {journal_path} — "
                    "re-run with --resume (or REPRO_RESUME=1) to finish "
                    "without re-simulating them"
                )
            raise CampaignInterrupted(
                hint, outcomes=completed, journal_path=journal_path
            ) from None
        finally:
            scope.__exit__(None, None, None)
            self._restore_signals()
            self._serial_mode = True
            if (
                self.journal is not None
                and "journal" not in self.telemetry.degraded
            ):
                # Commit any partial group-commit batch before acking:
                # every progress line ever emitted stays backed by an
                # fsync'd record, even for the tail of the campaign.
                try:
                    self.journal.flush()
                except (OSError, JournalError) as exc:
                    self._degrade("journal", exc)
            self._drain_acks(force=True)
            if self.cache is not None:
                # Persist pack sidecar indexes and drop descriptors so
                # a campaign never leaks fds across runs.
                self.cache.release_handles()
            if not self.telemetry.interrupted:
                # Interrupted runs tell their story via the journal +
                # resume hint; completed runs with failures render the
                # failure manifest (and clean runs remove a stale one).
                self._write_manifest(outcomes, total)
            self._campaign = None
            # One-shot chaos state is per-run: drop the auto-created
            # fault-state directory (recreated if this plan runs again).
            release_fault_state(self.faults)
            if self.cache is not None:
                self.telemetry.quarantines += (
                    self.cache.quarantined - quarantined_before
                )
            # One run-level registry delta: populate + serial cells +
            # worker deltas (already replayed into this registry by
            # _service), each counted exactly once.
            self.telemetry.absorb_store(
                store_stats_delta(stats_before, store_stats_snapshot())
            )
            if self.store is not None:
                # Teardown on every exit path — SIGINT included — so no
                # attachment outlives the run.
                self.store.release()
            self.telemetry.wall_seconds += time.perf_counter() - start
            self.telemetry.publish()
            snap = self.telemetry.snapshot()
            run_span.set(
                done=done,
                computed=snap["computed"],
                hit=snap["hit"],
                replayed=snap["replayed"],
                failed=snap["failed"],
                poisoned=snap["poisoned"],
                degraded=sorted(self.telemetry.degraded),
                interrupted=snap["interrupted"],
                store_trace_hits=snap["store_trace_hits"],
                store_trace_misses=snap["store_trace_misses"],
                store_trace_bytes=snap["store_trace_bytes"],
            )
            run_span.__exit__(None, None, None)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_serial(self, pending):
        for index, cell, key in pending:
            if self._interrupted:
                raise KeyboardInterrupt
            attempts = 0
            error: str | None = None
            # Accumulated *execution* time across attempts. Backoff
            # sleeps are excluded, matching the supervised parallel
            # path (which books only real worker time) — a retried
            # serial cell used to report wall_seconds inflated by
            # its own backoff delays.
            elapsed = 0.0
            value = None
            status = "failed"
            while attempts <= self.retries:
                attempts += 1
                attempt_start = time.perf_counter()
                try:
                    value, wall = _execute_cell(cell, self.faults)
                    elapsed += wall
                    status = "computed"
                    error = None
                    break
                except KeyboardInterrupt:
                    raise
                except Exception as exc:  # graceful degradation
                    elapsed += time.perf_counter() - attempt_start
                    error = f"{type(exc).__name__}: {exc}"
                    if attempts <= self.retries:
                        delay = backoff_delay(
                            key,
                            attempts,
                            self.backoff_base,
                            self.backoff_cap,
                        )
                        self.telemetry.backoff_seconds += delay
                        _M_BACKOFF.inc(delay)
                        obs_trace.event(
                            "cell.retry",
                            label=cell.label,
                            attempt=attempts,
                            delay=delay,
                            error=error,
                        )
                        if delay:
                            time.sleep(delay)
            yield index, CellOutcome(
                cell=cell,
                key=key,
                value=value,
                status=status,
                wall_seconds=elapsed,
                attempts=attempts,
                error=error,
            )
