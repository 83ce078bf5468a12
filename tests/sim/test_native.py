"""The compiled LRU walk: loaded by default, and a failed build falls back.

:class:`~repro.sim.cache.SetAssociativeCache` and the utility monitor's
reuse walk and bin feed step their state through ``repro.sim._lru``,
which a source-tree run builds on first use (:mod:`repro.sim.native`).
Where it cannot be built, batched mode must build reference caches and
run the monitor's Python loops instead, say so once on stderr, and
produce the same results.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import repro
from repro.harness import experiment
from repro.harness.experiment import run_mix_scheme
from repro.harness.runconfig import TEST
from repro.monitor.window import ReuseDistanceTracker
from repro.sim import native
from repro.sim.cache import ReferenceSetAssociativeCache, SetAssociativeCache
from repro.sim.kernelmode import KERNEL_ENV, make_cache
from repro.workloads.mixes import get_mix

WARNING = "warning: the compiled LRU walk is unavailable"


def _has_compiler() -> bool:
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return shutil.which(compiler) is not None


@pytest.mark.skipif(not _has_compiler(), reason="no C compiler on this host")
def test_default_mode_loads_the_extension(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    kernel = native.lru_kernel()
    assert kernel is not None
    assert kernel.__name__ == native.MODULE
    assert isinstance(make_cache(8, 4), SetAssociativeCache)


def test_a_failed_build_falls_back_to_the_reference_kernel(monkeypatch, capsys):
    """Caches and both monitor walks fall back to their Python loops.

    Time and Untangle cells assess with the UMON monitor, whose reuse
    walk and bin feed run compiled by default: without the module they
    must run the Python loops and give the same results.
    """

    def broken_build(scratch_root):
        raise RuntimeError("no compiler")

    python_walks = []
    observe_run = ReuseDistanceTracker.observe_run

    def counted_observe_run(self, line_addrs):
        python_walks.append(len(line_addrs))
        return observe_run(self, line_addrs)

    monkeypatch.delenv(KERNEL_ENV, raising=False)
    monkeypatch.setattr(ReuseDistanceTracker, "observe_run", counted_observe_run)
    pairs = get_mix(1)[:2]
    schemes = ("time", "untangle")
    with monkeypatch.context() as patch:
        patch.setattr(native, "_kernel", native._UNSET)
        patch.setattr(native, "_current", lambda marker: False)
        patch.setattr(native, "build", broken_build)
        patch.setattr(experiment, "_L1_TRACE_MEMO", {})
        assert isinstance(make_cache(8, 4), ReferenceSetAssociativeCache)
        fallback = [run_mix_scheme(pairs, scheme, TEST) for scheme in schemes]
        assert native.lru_kernel() is None
        assert capsys.readouterr().err.count(WARNING) == 1
        with pytest.raises(Exception, match="unavailable"):
            SetAssociativeCache(8, 4)
    assert python_walks
    python_walks.clear()
    monkeypatch.setattr(experiment, "_L1_TRACE_MEMO", {})
    default = [run_mix_scheme(pairs, scheme, TEST) for scheme in schemes]
    if native.lru_kernel() is not None:
        assert not python_walks
    assert fallback == default


def test_importing_the_monitor_and_schemes_loads_no_extension():
    """The module loads on the first walk or feed, never at import."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, repro.monitor, repro.schemes; "
        "assert 'repro.sim._lru' not in sys.modules, 'loaded at import'"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
