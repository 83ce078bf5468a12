"""Build script: the package metadata is in pyproject.toml.

It declares the one compiled module, the LRU walk of
``repro.sim.cache.SetAssociativeCache`` and the utility monitor's reuse
walk and bin feed (``src/repro/sim/_lru.c``). The
sha256 of its source is compiled in, so ``repro.sim.native`` can tell a
stale build from a current one; a source-tree run builds it on first
use through this script (``setup.py build_ext``).
"""

import hashlib
from pathlib import Path

from setuptools import Extension, setup

LRU_SOURCE = "src/repro/sim/_lru.c"
LRU_HASH = hashlib.sha256(
    (Path(__file__).resolve().parent / LRU_SOURCE).read_bytes()
).hexdigest()

setup(
    ext_modules=[
        Extension(
            "repro.sim._lru",
            [LRU_SOURCE],
            define_macros=[("LRU_SOURCE_HASH", f'"{LRU_HASH}"')],
            # No FMA contraction (and never -ffast-math): the monitor's
            # bin feed must round exactly as the Python loop it replaces.
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ]
)
