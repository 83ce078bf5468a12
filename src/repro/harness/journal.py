"""Crash-safe campaign journal: append-only JSONL of cell outcomes.

A long campaign (a figure's mix grid, the Figure 11 sensitivity sweep,
Table 6) is dozens of multi-second simulation cells. If the process
dies mid-run — machine crash, OOM kill, Ctrl-C — the journal is what
survives: every *finished* cell was appended as one self-contained JSON
line (fsync'd before the engine reports the cell done), so a restart
with ``--resume`` / ``REPRO_RESUME=1`` replays journaled results and
re-runs only the cells that never completed or failed.

Design points that make the journal trustworthy after a hard kill:

* **Append-only, one line per outcome.** A crash can only ever damage
  the final line (a partial append); :meth:`RunJournal.load` skips any
  line that does not parse and counts it in ``corrupt_lines`` instead
  of aborting.
* **Sealed lines.** Each line, the header included, is one sealed
  record (:mod:`repro.harness.integrity`): a torn or bit-flipped line
  is detected even when it happens to remain valid JSON.
* **Self-contained values.** Computed results are stored in encoded
  (JSON) form in the line itself, so resume works even with the result
  cache disabled or lost.
* **Last entry wins.** Re-running a campaign appends; on load, the
  newest record for a cell key shadows older ones, so a cell that
  failed yesterday and succeeded today resumes as succeeded.

Group commit: on grids of trivial cells the per-entry fsync *is* the
campaign — one disk flush per cell. With ``batch_entries > 1`` the
journal buffers serialized lines in user space and commits them with a
single ``write`` + ``fsync`` per batch, bounded by the entry count and
a linger deadline (a daemon flusher thread commits a partial batch at
most ``linger_seconds`` after its first entry; shutdown and degraded
teardown flush whatever remains). The durability contract is kept by
*deferring the ack*, not weakening it: :meth:`record` returns a
sequence number, :attr:`durable_seq` advances only after the batch's
fsync, and the engine reports a cell done (making it resume-skippable)
only once its sequence number is durable. The default is
``batch_entries=1`` — fully synchronous, exactly the old behavior.

The journal lives next to the result cache by default
(``<cache-dir>/journal.jsonl``); the engine writes one record per
computed / cache-hit / failed cell and never rewrites existing lines.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

from repro.errors import ConfigurationError, JournalError
from repro.harness.integrity import seal, unseal
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults ↔ journal)
    from repro.harness.faults import FaultPlan

#: Bump when the journal line layout changes incompatibly; old journals
#: are then ignored on resume instead of being misread. (2: sealed
#: lines with a full-length digest, the header included.)
JOURNAL_FORMAT_VERSION = 2

#: Group commit of every campaign journal the engine settings build
#: (:func:`repro.harness.settings.engine_from_env`): entries per fsync
#: batch, and the longest a partial batch waits for its fsync.
DEFAULT_BATCH_ENTRIES = 64
DEFAULT_LINGER_SECONDS = 0.05

_REG = obs_metrics.get_registry()
_M_APPENDS = _REG.counter(
    "repro_journal_appends_total", "Cell outcomes durably journaled"
)
_M_CORRUPT = _REG.counter(
    "repro_journal_corrupt_lines_total", "Damaged journal lines skipped on load"
)
_M_BATCH = _REG.histogram(
    "repro_journal_batch_entries",
    "Entries committed per journal fsync batch",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
)


@dataclass(frozen=True)
class JournalEntry:
    """One journaled cell outcome."""

    key: str
    label: str
    status: str  # "computed" | "hit" | "failed" | "poisoned"
    wall_seconds: float
    attempts: int
    campaign: str | None = None
    #: Encoded (JSON-able) result payload for successful cells.
    value: Any | None = None
    error: str | None = None
    #: Run-profile name of the cell, when it carries one. Runtime hints
    #: are keyed by (scheme family, profile) so campaigns under one
    #: profile never inherit another profile's wall-time means. Optional
    #: and absent from old journals — no format bump needed: the seal
    #: covers whatever fields a line actually has.
    profile: str | None = None

    @property
    def ok(self) -> bool:
        # Poisoned cells (retry budget exhausted by worker deaths) are
        # journaled so a --resume campaign knows to re-attempt exactly
        # them — an ok entry would be replayed and never retried.
        return self.status not in ("failed", "poisoned")


class RunJournal:
    """Append-only JSONL journal of campaign cell outcomes.

    By default records are flushed and fsync'd as they are written:
    once the engine has reported a cell finished, that outcome survives
    SIGKILL. With ``batch_entries > 1`` the same guarantee is kept via
    group commit — see the module docstring.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = True,
        batch_entries: int = 1,
        linger_seconds: float = 0.0,
        faults: "FaultPlan | None" = None,
    ):
        if batch_entries < 1:
            raise ConfigurationError("batch_entries must be >= 1")
        if linger_seconds < 0:
            raise ConfigurationError("linger_seconds must be >= 0")
        self.path = Path(path)
        self.fsync = fsync
        self.batch_entries = batch_entries
        self.linger_seconds = linger_seconds
        #: Fault plan consulted at each flush (``journal-batch-crash``);
        #: the engine attaches its own plan here when none was given.
        self.faults = faults
        self._handle: TextIO | None = None
        #: Lines skipped by the last :meth:`load` (torn writes, bit rot).
        self.corrupt_lines = 0
        # Group-commit state, guarded by _lock (the flusher thread and
        # the recording thread both touch the buffer).
        self._lock = threading.Lock()
        self._buffer: list[str] = []
        self._buffered_at: float | None = None
        self._seq = 0
        #: Highest sequence number whose record has been fsync'd. A
        #: cell is safe to ack once its :meth:`record` sequence number
        #: is ``<= durable_seq``.
        self.durable_seq = 0
        #: Fsync batches committed over this instance's life.
        self.flushes = 0
        self._flusher: threading.Thread | None = None
        self._closed = threading.Event()

    # ------------------------------------------------------------------
    def _open(self) -> TextIO:
        if self._handle is None or self._handle.closed:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fresh = not self.path.exists() or self.path.stat().st_size == 0
                self._handle = open(self.path, "a", encoding="utf-8")
            except OSError as exc:
                raise JournalError(f"cannot open journal {self.path}: {exc}")
            if fresh:
                # The header is written synchronously even under group
                # commit: it carries no cell outcome, and a journal file
                # should identify its format from byte one.
                header = {"kind": "header", "format": JOURNAL_FORMAT_VERSION}
                self._write_lines([seal(header) + "\n"])
        return self._handle

    def _write_lines(self, lines: list[str]) -> None:
        handle = self._handle
        assert handle is not None
        try:
            handle.write("".join(lines))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError as exc:
            raise JournalError(f"cannot append to journal {self.path}: {exc}")

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        self.flushes += 1
        if self.faults is not None:
            # The injected crash window: entries are serialized but
            # still in the user-space buffer — nothing has reached the
            # kernel, so an os._exit here genuinely loses them, exactly
            # like a crash between a cell finishing and its group
            # commit. Acks for these entries were never emitted.
            self.faults.on_journal_flush(self.flushes)
        lines = self._buffer
        entries = len(lines)
        self._buffer = []
        self._buffered_at = None
        with obs_trace.span(
            "journal.flush", path=str(self.path), entries=entries
        ):
            try:
                self._write_lines(lines)
            except JournalError:
                # The batch is lost either way (degraded journal);
                # dropping it keeps a retried flush from re-appending
                # half-written lines. durable_seq stays put, so none of
                # these cells is ever acked as durable.
                raise
            self.durable_seq = self._seq
        _M_APPENDS.inc(entries)
        _M_BATCH.observe(entries)

    def _linger_flusher(self) -> None:
        # Commits a partial batch at most linger_seconds after its first
        # entry, so slow cells are not held hostage by a big batch size.
        while not self._closed.wait(self.linger_seconds / 2 or 0.01):
            with self._lock:
                if self._handle is None or self._handle.closed:
                    continue
                if (
                    self._buffered_at is not None
                    and time.monotonic() - self._buffered_at
                    >= self.linger_seconds
                ):
                    try:
                        self._flush_locked()
                    except JournalError:
                        # The recording thread surfaces the failure on
                        # its next record/flush; the engine degrades.
                        pass

    def _ensure_flusher(self) -> None:
        if (
            self.linger_seconds > 0
            and self.batch_entries > 1
            and (self._flusher is None or not self._flusher.is_alive())
            and not self._closed.is_set()
        ):
            self._flusher = threading.Thread(
                target=self._linger_flusher,
                name="journal-linger-flush",
                daemon=True,
            )
            self._flusher.start()

    # ------------------------------------------------------------------
    def record(self, entry: JournalEntry) -> int:
        """Append one cell outcome; returns its sequence number.

        With the default ``batch_entries=1`` the record is durable
        (written, flushed, fsync'd) when this returns. Under group
        commit it may still be buffered: the caller must hold its ack
        until the returned sequence number is ``<= durable_seq``
        (advanced by the batch's fsync, forced by :meth:`flush`).
        """
        # Built by hand rather than dataclasses.asdict(): asdict deep-
        # copies the embedded value payload, which on trivial-cell grids
        # costs more than the serialization itself. Sealing never
        # mutates, so sharing the reference is safe.
        fields = {
            "kind": "cell",
            "format": JOURNAL_FORMAT_VERSION,
            "key": entry.key,
            "label": entry.label,
            "status": entry.status,
            "wall_seconds": entry.wall_seconds,
            "attempts": entry.attempts,
            "campaign": entry.campaign,
            "value": entry.value,
            "error": entry.error,
            "profile": entry.profile,
        }
        line = seal(fields) + "\n"
        with self._lock:
            self._open()
            self._seq += 1
            seq = self._seq
            self._buffer.append(line)
            if self._buffered_at is None:
                self._buffered_at = time.monotonic()
            if len(self._buffer) >= self.batch_entries:
                self._flush_locked()
            else:
                self._ensure_flusher()
        obs_trace.event(
            "journal.append", label=entry.label, status=entry.status
        )
        return seq

    def flush(self) -> None:
        """Force-commit any buffered entries (shutdown/degrade path)."""
        with self._lock:
            if self._handle is None or self._handle.closed:
                return
            self._flush_locked()

    def load(self) -> dict[str, JournalEntry]:
        """Read the journal back: newest valid entry per cell key.

        Tolerates a missing file (empty campaign), a torn final line
        (crash mid-append), and lines that fail their seal or the format
        check; damaged lines are counted in :attr:`corrupt_lines`, never
        raised.
        """
        self.corrupt_lines = 0
        entries: dict[str, JournalEntry] = {}
        try:
            handle = open(self.path, "rb")
        except OSError:
            return {}
        with handle:
            for line in handle:
                if not line.strip():
                    continue
                fields = unseal(line)
                if fields is None:
                    self.corrupt_lines += 1
                    continue
                if fields.get("kind") == "header":
                    continue
                if (
                    fields.get("kind") != "cell"
                    or fields.get("format") != JOURNAL_FORMAT_VERSION
                ):
                    self.corrupt_lines += 1
                    continue
                try:
                    entry = JournalEntry(
                        key=fields["key"],
                        label=fields["label"],
                        status=fields["status"],
                        wall_seconds=fields["wall_seconds"],
                        attempts=fields["attempts"],
                        campaign=fields.get("campaign"),
                        value=fields.get("value"),
                        error=fields.get("error"),
                        profile=fields.get("profile"),
                    )
                except KeyError:
                    self.corrupt_lines += 1
                    continue
                entries[entry.key] = entry
        if self.corrupt_lines:
            _M_CORRUPT.inc(self.corrupt_lines)
        obs_trace.event(
            "journal.load",
            path=str(self.path),
            entries=len(entries),
            corrupt_lines=self.corrupt_lines,
        )
        return entries

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed.set()
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                try:
                    self._flush_locked()
                finally:
                    self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
