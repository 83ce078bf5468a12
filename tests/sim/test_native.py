"""The compiled LRU walk: loaded by default, and a failed build falls back.

:class:`~repro.sim.cache.SetAssociativeCache` steps its state through
``repro.sim._lru``, which a source-tree run builds on first use
(:mod:`repro.sim.native`). Where it cannot be built, batched mode must
build reference caches instead, say so once on stderr, and produce the
same results.
"""

from __future__ import annotations

import shutil
import sysconfig

import pytest

from repro.harness import experiment
from repro.harness.experiment import run_mix_scheme
from repro.harness.runconfig import TEST
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
    def broken_build(scratch_root):
        raise RuntimeError("no compiler")

    monkeypatch.delenv(KERNEL_ENV, raising=False)
    pairs = get_mix(1)[:2]
    with monkeypatch.context() as patch:
        patch.setattr(native, "_kernel", native._UNSET)
        patch.setattr(native, "_current", lambda marker: False)
        patch.setattr(native, "build", broken_build)
        patch.setattr(experiment, "_L1_TRACE_MEMO", {})
        assert isinstance(make_cache(8, 4), ReferenceSetAssociativeCache)
        fallback = run_mix_scheme(pairs, "untangle", TEST)
        assert native.lru_kernel() is None
        assert capsys.readouterr().err.count(WARNING) == 1
        with pytest.raises(Exception, match="unavailable"):
            SetAssociativeCache(8, 4)
    monkeypatch.setattr(experiment, "_L1_TRACE_MEMO", {})
    default = run_mix_scheme(pairs, "untangle", TEST)
    assert fallback == default
