"""Workload composition (Section 8 of the paper).

Each domain's workload pairs one SPEC17 benchmark with one crypto
benchmark sharing the same LLC partition: "we repeatedly run in a loop 1M
instructions from the cryptographic benchmark and then 10M instructions
from the SPEC17 benchmark". The crypto part is conservatively annotated
fully secret-dependent; the SPEC part is public.

:class:`~repro.workloads.scale.WorkloadScale` collects the
instruction-count parameters so the same composition logic serves the
scaled evaluation, the fast test profile, and paper-scale documentation
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.annotations import AnnotationVector, concatenate_annotations
from repro.obs import metrics as obs_metrics
from repro.sim.cpu import CoreConfig, InstructionStream
from repro.workloads.crypto import CryptoBenchmark, get_crypto_benchmark
from repro.workloads.patterns import place_memory_instructions
from repro.workloads.scale import WorkloadScale
from repro.workloads.spec import SpecBenchmark, get_spec_benchmark

#: Counts full (expensive) workload compositions in this process —
#: the precompute store exists to keep this at one per unique trace.
_M_BUILDS = obs_metrics.get_registry().counter(
    "repro_workload_builds_total",
    "Full workload-trace compositions performed in this process",
)


@dataclass
class BuiltWorkload:
    """A ready-to-simulate workload."""

    label: str
    stream: InstructionStream
    core_config: CoreConfig
    spec: SpecBenchmark
    crypto: CryptoBenchmark


def _build_chunk_stream(
    accesses: np.ndarray, memory_fraction: float, secret_annotated: bool
) -> tuple[np.ndarray, AnnotationVector]:
    stream = place_memory_instructions(accesses, memory_fraction)
    if secret_annotated:
        annotations = AnnotationVector.fully_secret(len(stream))
    else:
        annotations = AnnotationVector.public(len(stream))
    return stream, annotations


def compose_workload_arrays(
    spec_name: str,
    crypto_name: str,
    scale: WorkloadScale | None = None,
    *,
    seed: int = 0,
    secret: int = 0,
) -> dict[str, np.ndarray]:
    """The expensive half of :func:`build_workload`: the raw trace arrays.

    Returns the composed ``addresses`` / ``metric_excluded`` /
    ``progress_excluded`` / ``stall_cycles`` arrays — exactly the data
    the precompute store persists and shares across cells. Everything
    downstream of these arrays (:func:`assemble_workload`) is cheap and
    deterministic, so caching this boundary keeps the store-path output
    bit-identical to a direct build.
    """
    if scale is None:
        scale = WorkloadScale()
    _M_BUILDS.inc()
    spec = get_spec_benchmark(spec_name)
    crypto = get_crypto_benchmark(crypto_name)
    rng = np.random.default_rng(seed)

    # Generate each benchmark's full access sequence once so reuse
    # patterns continue seamlessly across chunk boundaries.
    spec_period = max(1, round(1.0 / spec.mem_fraction))
    crypto_period = max(1, round(1.0 / crypto.mem_fraction))
    spec_mem_total = max(1, scale.spec_instructions // spec_period)
    crypto_mem_total = max(1, scale.crypto_instructions // crypto_period)
    spec_accesses = spec.generate_accesses(spec_mem_total, rng, scale.lines_per_mb)
    crypto_accesses = crypto.generate_accesses(crypto_mem_total, rng, secret)

    spec_chunk_mem = max(1, scale.spec_chunk // spec_period)
    crypto_chunk_mem = max(1, scale.crypto_chunk // crypto_period)

    segments: list[np.ndarray] = []
    annotations: list[AnnotationVector] = []
    stall_segments: list[np.ndarray] = []
    spec_cursor = 0
    crypto_cursor = 0
    secret_stall = crypto.secret_stall_cycles * int(secret).bit_count()
    while spec_cursor < spec_mem_total or crypto_cursor < crypto_mem_total:
        if crypto_cursor < crypto_mem_total:
            chunk = crypto_accesses[
                crypto_cursor : crypto_cursor + crypto_chunk_mem
            ]
            crypto_cursor += len(chunk)
            stream, annotation = _build_chunk_stream(
                chunk, crypto.mem_fraction, secret_annotated=True
            )
            stalls = np.zeros(len(stream), dtype=np.int64)
            if secret_stall > 0:
                # Secret-dependent timing (Figure 1c shape): the secret
                # stretches the crypto chunk without changing what retires.
                stalls[0] = secret_stall
            segments.append(stream)
            annotations.append(annotation)
            stall_segments.append(stalls)
        if spec_cursor < spec_mem_total:
            chunk = spec_accesses[spec_cursor : spec_cursor + spec_chunk_mem]
            spec_cursor += len(chunk)
            stream, annotation = _build_chunk_stream(
                chunk, spec.mem_fraction, secret_annotated=False
            )
            segments.append(stream)
            annotations.append(annotation)
            stall_segments.append(np.zeros(len(stream), dtype=np.int64))

    addresses = np.concatenate(segments)
    annotation_vector = concatenate_annotations(annotations)
    stalls_all = np.concatenate(stall_segments)
    return {
        "addresses": addresses,
        "metric_excluded": annotation_vector.metric_excluded,
        "progress_excluded": annotation_vector.progress_excluded,
        "stall_cycles": stalls_all,
    }


def assemble_workload(
    spec_name: str,
    crypto_name: str,
    scale: WorkloadScale,
    arrays: dict[str, np.ndarray],
    *,
    seed: int = 0,
    timing_jitter: int = 0,
) -> BuiltWorkload:
    """The cheap half of :func:`build_workload`: arrays → ready workload.

    ``arrays`` is the mapping produced by :func:`compose_workload_arrays`
    (possibly served zero-copy from the precompute store). No randomness
    is consumed here; jitter is a *core-model* parameter seeded from the
    same ``seed`` the composition used, so store-served and directly
    built workloads are indistinguishable.
    """
    spec = get_spec_benchmark(spec_name)
    crypto = get_crypto_benchmark(crypto_name)
    addresses = arrays["addresses"]
    annotation_vector = AnnotationVector(
        arrays["metric_excluded"], arrays["progress_excluded"]
    )
    stalls_all = arrays["stall_cycles"]
    stream = InstructionStream(
        addresses,
        annotation_vector,
        stall_cycles=stalls_all if stalls_all.any() else None,
    )
    core_config = CoreConfig(
        mlp=spec.mlp,
        slice_instructions=stream.length,
        warmup_instructions=int(scale.warmup_fraction * stream.length),
        timing_jitter=timing_jitter,
        timing_jitter_seed=seed + 1,
    )
    return BuiltWorkload(
        label=f"{spec_name}+{crypto_name}",
        stream=stream,
        core_config=core_config,
        spec=spec,
        crypto=crypto,
    )


def build_workload(
    spec_name: str,
    crypto_name: str,
    scale: WorkloadScale | None = None,
    *,
    seed: int = 0,
    secret: int = 0,
    timing_jitter: int = 0,
) -> BuiltWorkload:
    """Compose one ``SPEC + crypto`` workload into an instruction stream.

    Parameters
    ----------
    seed:
        Workload-generation seed (public input randomness).
    secret:
        The crypto benchmark's secret input; affects its access pattern
        through :attr:`CryptoBenchmark.secret_demand_lines` and its timing
        through :attr:`CryptoBenchmark.secret_stall_cycles`. These secret
        effects stay confined to annotated instructions — which is exactly
        why Untangle's action sequence ignores them.
    timing_jitter:
        Max random extra cycles per memory access (timing perturbation for
        differential tests).

    This is the direct (store-less) path:
    :func:`compose_workload_arrays` + :func:`assemble_workload` in one
    call. Campaign code goes through
    :func:`repro.harness.store.cached_build_workload`, which shares the
    composed arrays across cells and processes when a precompute store
    is active.
    """
    if scale is None:
        scale = WorkloadScale()
    arrays = compose_workload_arrays(
        spec_name, crypto_name, scale, seed=seed, secret=secret
    )
    return assemble_workload(
        spec_name,
        crypto_name,
        scale,
        arrays,
        seed=seed,
        timing_jitter=timing_jitter,
    )
