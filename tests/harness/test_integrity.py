"""Tests for the on-disk integrity layer and the files sealed with it.

* **Sealed records** — :func:`seal`/:func:`unseal` round-trip, and
  every damaged form (torn, not an object, no digest, wrong digest)
  comes back as ``None``.
* **Protocols** — :func:`write_atomic` leaves the old file or the new
  one, never a temp file; :func:`quarantine` moves damage aside.
* **Coverage** — every journal line, pack line, ``.idx`` sidecar,
  R_max artifact and trace ``meta.json`` a cold ``table6`` writes is
  sealed.
* **Damage** — one flipped digit that keeps the file valid JSON is
  caught in each of the five kinds, and the rerun prints the same
  output as the cold run.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.harness.exec import ResultCache, engine_from_env
from repro.harness.experiment import run_mix
from repro.harness.figures import figure_group
from repro.harness.integrity import (
    canonical_json,
    digest,
    quarantine,
    seal,
    unseal,
    write_atomic,
)
from repro.harness.report import render_figure_group
from repro.harness.runconfig import TEST
from repro.schemes.untangle import clear_rate_table_cache

RECORD = {"kind": "cell", "value": {"ipc": [1.25, 0.5]}, "label": "é"}


def _clean_environment(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


class TestSeal:
    def test_round_trip(self):
        line = seal(RECORD)
        assert unseal(line) == RECORD
        assert json.loads(line)["sha256"] == digest(RECORD)

    def test_digest_is_over_the_canonical_text(self):
        assert seal(RECORD).startswith(canonical_json(RECORD)[:-1] + ",")

    def test_bytes_with_trailing_newline(self):
        assert unseal((seal(RECORD) + "\n").encode("utf-8")) == RECORD

    def test_truncated_line(self):
        line = seal(RECORD)
        for cut in (1, 2, len(line) // 2, len(line) - 1):
            assert unseal(line[:cut]) is None

    def test_not_an_object(self):
        assert unseal("[1, 2, 3]") is None
        assert unseal('"' + "x" * 100 + '"') is None
        assert unseal(b"\xff" * 100) is None

    def test_missing_digest(self):
        assert unseal(canonical_json(RECORD)) is None

    def test_mismatched_digest(self):
        line = seal(RECORD).replace("1.25", "1.26")
        assert json.loads(line)  # still valid JSON
        assert unseal(line) is None


class TestProtocols:
    def test_write_atomic_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("old")
        write_atomic(path, "new")
        write_atomic(path, b"newer", fsync=True)
        assert path.read_bytes() == b"newer"
        assert os.listdir(tmp_path) == ["f.json"]

    def test_write_atomic_failure_keeps_the_old_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "f.json"
        path.write_text("old")

        def failing_replace(src, dst):
            raise OSError("EIO")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_atomic(path, "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["f.json"]

    def test_quarantine_file_and_directory(self, tmp_path):
        (tmp_path / "a.json").write_text("bad")
        (tmp_path / "a.json.corrupt").write_text("older")
        quarantine(tmp_path / "a.json")
        assert (tmp_path / "a.json.corrupt").read_text() == "bad"
        for contents in ("older", "bad"):
            entry = tmp_path / "entry"
            entry.mkdir()
            (entry / "meta.json").write_text(contents)
            quarantine(entry)
        assert not (tmp_path / "entry").exists()
        assert (tmp_path / "entry.corrupt" / "meta.json").read_text() == "bad"

    def test_quarantine_deletes_what_it_cannot_rename(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "a.json").write_text("bad")

        def failing_replace(src, dst):
            raise OSError("EXDEV")

        monkeypatch.setattr(os, "replace", failing_replace)
        quarantine(tmp_path / "a.json")
        assert os.listdir(tmp_path) == []


def test_cold_table6_writes_only_sealed_records(
    tmp_path, monkeypatch, capsys
):
    _clean_environment(monkeypatch)
    clear_rate_table_cache()
    cache = tmp_path / "cache"
    argv = ["--profile", "test", "--cache-dir", str(cache), "table6"]
    assert main(argv) == 0
    capsys.readouterr()
    lines = {
        "journal": (cache / "journal.jsonl").read_bytes().splitlines(),
        "pack": [
            line
            for pack in (cache / "packs").glob("*.pack")
            for line in pack.read_bytes().splitlines()
        ],
        "idx": [p.read_bytes() for p in (cache / "packs").glob("*.idx")],
        "rmax": [p.read_bytes() for p in (cache / "store/rmax").glob("*")],
        "meta": [
            p.read_bytes() for p in (cache / "store/traces").rglob("meta.json")
        ],
    }
    # A header and 12 cell lines; 12 pack entries; one R_max table.
    assert len(lines["journal"]) == 13 and len(lines["pack"]) == 12
    assert len(lines["rmax"]) == 1 and lines["idx"] and lines["meta"]
    for kind, records in lines.items():
        for record in records:
            assert unseal(record) is not None, (kind, record[:80])
    assert not list(cache.rglob("*.tmp"))
    assert not list(cache.rglob("*.corrupt"))


# ----------------------------------------------------------------------
# One flipped digit per sealed kind: detected, recomputed, same output
# ----------------------------------------------------------------------
def _flip_digit_after(path: Path, marker: str, line: int = 0) -> None:
    """Replace the first digit after ``marker`` in line ``line`` of
    ``path``; the file stays valid JSON of the same length."""
    lines = path.read_text().split("\n")
    at = lines[line].index(marker) + len(marker)
    at += re.search(r"[0-9]", lines[line][at:]).start()
    digit = lines[line][at]
    new = "1" if digit != "1" else "2"
    lines[line] = lines[line][:at] + new + lines[line][at + 1 :]
    json.loads(lines[line])
    path.write_text("\n".join(lines))


def _first(root: Path, pattern: str) -> Path:
    return sorted(root.glob(pattern))[0]


#: kind -> (file to damage, marker, line, engine options for the rerun).
#: The journal is read only on resume; the store only when cells run.
RESUME, COMPUTE = {"resume": True}, {"cache": False}
DAMAGE = {
    "pack-line": ("packs/*.pack", '"wall_seconds":', 0, {}),
    "journal-line": ("journal.jsonl", '"wall_seconds":', 1, RESUME),
    "sidecar": ("packs/*.idx", '"entries":{"', 0, {}),
    "rmax-artifact": ("store/rmax/*.json", '"entries":', 0, COMPUTE),
    "trace-meta": ("store/traces/*/*/meta.json", '"token":', 0, COMPUTE),
}


@pytest.fixture(scope="module")
def cold_mix(tmp_path_factory):
    """A cold ``mix 1`` cache directory and the figure it rendered."""
    root = tmp_path_factory.mktemp("cold-mix")
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for name in saved:
        del os.environ[name]
    try:
        _, rendered = _run_mix(root / "cache")
    finally:
        os.environ.update(saved)
    return root / "cache", rendered


def _run_mix(cache_dir: Path, **options):
    clear_rate_table_cache()
    engine = engine_from_env(cache_dir=cache_dir, jobs=1, **options)
    result = run_mix(1, TEST, engine=engine)
    return engine, render_figure_group(
        figure_group(1, TEST, mix_result=result)
    )


@pytest.mark.parametrize("kind", sorted(DAMAGE))
def test_damage_is_detected_and_recomputed(
    kind, cold_mix, tmp_path, monkeypatch
):
    _clean_environment(monkeypatch)
    cold_dir, cold_rendered = cold_mix
    cache_dir = tmp_path / "cache"
    shutil.copytree(cold_dir, cache_dir)
    pattern, marker, line, options = DAMAGE[kind]
    victim = _first(cache_dir, pattern)
    _flip_digit_after(victim, marker, line)

    scanned_from = []
    real_load = ResultCache._load_sidecar

    def spy(self, shard, size):
        scanned_from.append((shard, real_load(self, shard, size)))
        return scanned_from[-1][1]

    monkeypatch.setattr(ResultCache, "_load_sidecar", spy)
    engine, rendered = _run_mix(cache_dir, **options)
    snap = engine.telemetry.snapshot()
    assert rendered == cold_rendered

    if kind == "pack-line":
        assert (snap["quarantined"], snap["computed"]) == (1, 1)
        assert (cache_dir / "packs" / f"{victim.stem}.corrupt").exists()
    elif kind == "journal-line":
        assert engine.journal.corrupt_lines == 1
        assert snap["replayed"] == snap["total"] - 1
    elif kind == "sidecar":
        assert (victim.stem, 0) in scanned_from  # rescanned, not trusted
        trusted = [n for shard, n in scanned_from if shard != victim.stem]
        assert trusted and all(trusted)
        assert (snap["hit"], snap["quarantined"]) == (snap["total"], 0)
    else:
        assert snap["store_quarantines"] == 1
        damaged = victim if kind == "rmax-artifact" else victim.parent
        assert damaged.with_name(damaged.name + ".corrupt").exists()
        assert unseal(victim.read_bytes()) is not None  # rebuilt
