"""The shared scratch arena reused across chunk boundaries.

Cell-major batching runs a chunk's cells under one
:func:`~repro.sim.batch.cell_scratch` arena (with reentrant, no-op
per-cell activations inside it), so the batched kernel's delta/cumsum
buffers are reused across cells *and* across the chunk boundary. That
must be bit-identical to fresh per-cell allocation.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ArchConfig
from repro.sim.batch import cell_scratch
from repro.sim.cpu import Core, CoreConfig, InstructionStream
from repro.sim.hierarchy import DomainMemory
from repro.sim.partition import PartitionedLLC
from repro.sim.stats import DomainStats


def _run_cells(cell_streams, nested: bool):
    """Run a 'chunk' of little one-core cells; return every observable.

    Each cell advances in short cycle budgets, so batched runs both
    commit fully and roll back partially.
    """
    arch = ArchConfig.tiny(num_cores=2)
    outputs = []
    with ExitStack() as chunk:
        if nested:
            chunk.enter_context(cell_scratch())
        for addresses in cell_streams:
            with ExitStack() as cell:
                if nested:
                    cell.enter_context(cell_scratch())
                llc = PartitionedLLC(
                    arch.llc_lines,
                    arch.llc_associativity,
                    arch.num_cores,
                    arch.default_partition_lines,
                )
                memory = DomainMemory(arch, llc.view(0))
                stream = InstructionStream(np.asarray(addresses, dtype=np.int64))
                core = Core(
                    domain=0,
                    stream=stream,
                    memory=memory,
                    arch=arch,
                    core_config=CoreConfig(
                        mlp=1.0, slice_instructions=3 * stream.length
                    ),
                    stats=DomainStats(domain=0),
                )
                while not core.finished:
                    core.run(until_cycle=core.cycles + 97.0)
                    outputs.append((core.cycles, core.retired))
                outputs.append(dict(memory.level_counts))
    return outputs


class TestScratchAcrossChunks:
    @settings(max_examples=40, deadline=None)
    @given(
        cell_streams=st.lists(
            st.lists(
                st.one_of(st.just(-1), st.integers(min_value=0, max_value=150)),
                min_size=1,
                max_size=120,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_nested_reused_arena_matches_fresh_allocation(self, cell_streams):
        assert _run_cells(cell_streams, nested=True) == _run_cells(
            cell_streams, nested=False
        )
