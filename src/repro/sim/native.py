"""Load (building on first use) the compiled LRU walk.

:class:`repro.sim.cache.SetAssociativeCache` steps its array state
through ``repro.sim._lru``, built from ``_lru.c`` by the ``setup.py``
extension declaration. An installed package (``pip install .`` or
``-e .``) builds it at install time. A source-tree run
(``PYTHONPATH=src``) builds it in place the first time a batched
cache is constructed — never at import, so commands that simulate
nothing neither build nor load it:

* the build is ``setup.py build_ext`` into a scratch directory under
  ``build/``, then an atomic rename over the package's module, all
  under a file lock, so concurrent first runs build once and a process
  that already mapped an older module keeps it intact;
* a built module is current when the sha256 of ``_lru.c`` is compiled
  into it (the build defines it); a changed source is rebuilt.

If the module cannot be built or loaded, :func:`lru_kernel` returns
``None`` and prints one warning to stderr; :func:`repro.sim.kernelmode.make_cache`
then builds reference caches, whose results are bit-identical.
"""

from __future__ import annotations

import fcntl
import hashlib
import importlib
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

MODULE = "repro.sim._lru"
HERE = Path(__file__).resolve().parent
SOURCE = HERE / "_lru.c"
#: The repository root of a source tree (where ``setup.py`` lives).
ROOT = HERE.parents[2]

_UNSET = object()
_kernel: object = _UNSET


def lru_kernel():
    """The compiled LRU module, or ``None`` when it is unavailable.

    Loaded once per process (forked workers inherit it); the first call
    builds it if needed, and a failure warns once.
    """
    global _kernel
    if _kernel is _UNSET:
        try:
            _kernel = _load()
        except Exception as exc:  # noqa: BLE001 - any failure falls back
            _kernel = None
            print(
                "repro: warning: the compiled LRU walk is unavailable "
                f"({exc}); simulating with the reference cache kernel "
                "(same results, slower). Building it needs a C compiler.",
                file=sys.stderr,
            )
    return _kernel


def _load():
    if SOURCE.is_file() and (ROOT / "setup.py").is_file():
        marker = b"repro-lru-source-sha256:" + hashlib.sha256(
            SOURCE.read_bytes()
        ).hexdigest().encode()
        if not _current(marker):
            lock_dir = ROOT / "build"
            lock_dir.mkdir(exist_ok=True)
            with open(lock_dir / "lru.lock", "wb") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                if not _current(marker):
                    build(lock_dir)
    return importlib.import_module(MODULE)


def module_path() -> Path:
    """Where the package's compiled module lives."""
    return HERE / ("_lru" + sysconfig.get_config_var("EXT_SUFFIX"))


def _current(marker: bytes) -> bool:
    """Whether the built module exists and carries ``marker``."""
    try:
        return marker in module_path().read_bytes()
    except OSError:
        return False


def build(scratch_root: Path) -> None:
    """Build the module with ``setup.py build_ext`` and move it into place."""
    scratch = Path(tempfile.mkdtemp(prefix="lru-", dir=scratch_root))
    try:
        done = subprocess.run(
            [
                sys.executable, "setup.py", "-q", "build_ext",
                "--build-lib", str(scratch / "lib"),
                "--build-temp", str(scratch / "temp"),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        built = scratch / "lib" / "repro" / "sim" / module_path().name
        if done.returncode != 0 or not built.is_file():
            lines = (done.stderr or done.stdout).strip().splitlines()
            raise RuntimeError(
                "building it failed: " + (lines[-1] if lines else "no output")
            )
        os.replace(built, module_path())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
