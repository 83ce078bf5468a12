"""The on-disk integrity layer: one record format, two file protocols.

Every file the harness persists and later trusts (journal lines, pack
lines, ``.idx`` sidecars, R_max artifacts, trace ``meta.json``) is a
*sealed record*: its canonical JSON with the SHA-256 of that text
spliced in as the last field, ``{...,"sha256":"<64 hex>"}``. A torn or
bit-flipped record fails :func:`unseal` even when it is still valid
JSON. Whole files change only through :func:`write_atomic`; damaged
ones are moved aside by :func:`quarantine`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any

_HEAD = b',"sha256":"'
_TAIL = b'"}'


def canonical_json(obj: Any) -> str:
    """The one JSON spelling that is hashed: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    """SHA-256 hex of ``obj``'s canonical JSON (content addresses)."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def seal(record: dict[str, Any]) -> str:
    """``record`` (non-empty, no ``sha256`` field) as one sealed line,
    serialized once; no trailing newline."""
    text = canonical_json(record)
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text[:-1] + ',"sha256":"' + sha + '"}'


def unseal(data: bytes | str) -> dict[str, Any] | None:
    """The record a sealed line holds, without ``sha256``; ``None`` if
    it is torn, not a JSON object, or its digest is missing or wrong.

    The digest is checked over the stored bytes, never a re-dump.
    Trailing whitespace (a line's newline) is ignored.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    body, _, sealed = data.rstrip().rpartition(_HEAD)
    body += b"}"
    if sealed != hashlib.sha256(body).hexdigest().encode() + _TAIL:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def write_atomic(
    path: str | Path, data: bytes | str, *, fsync: bool = False
) -> None:
    """Replace ``path`` with ``data``: a temp file beside it (fsync'd
    when asked) renamed into place. On ``OSError`` the temp file is
    removed, ``path`` is untouched, and the error is re-raised."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def quarantine(path: str | Path) -> None:
    """Move a damaged file or directory aside as ``<name>.corrupt``,
    replacing an older one; delete it if it cannot be moved."""
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    try:
        if target.is_dir():
            shutil.rmtree(target)
        os.replace(path, target)
    except OSError:
        shutil.rmtree(path, ignore_errors=True)  # a directory
        with contextlib.suppress(OSError):
            path.unlink()  # a file
