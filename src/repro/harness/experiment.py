"""Mix experiments: run one workload mix under the Table 4 schemes.

This is the engine behind Figures 10 and 12-17 and Table 6. A mix of
eight ``SPEC + crypto`` workloads is simulated under Static, Time,
Untangle, and Shared; per-workload IPC (normalized to Static), leakage
per assessment, total leakage, and partition-size distributions are
extracted, matching the panels of each figure group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import ArchConfig
from repro.errors import ConfigurationError
from repro.harness.exec import ExecutionEngine, MixSchemeCell
from repro.harness.runconfig import RunProfile, SCALED
from repro.harness.store import cached_build_workload
from repro.registry import (
    SchemeSelection,
    canonical_params,
    create_scheme,
    default_campaign_schemes,
    scheme_names,
    scheme_registration,
    scheme_store_needs,
)
from repro.schemes.untangle import get_rate_table, get_worst_case_rate_table
from repro.sim.cpu import CoreConfig, InstructionStream
from repro.sim.hierarchy import L1ServiceTrace, MonitorTrace
from repro.sim.kernelmode import batching_enabled
from repro.sim.system import DomainSpec, MultiDomainSystem
from repro.workloads.mixes import get_mix


def __getattr__(name: str):
    # SCHEME_NAMES stays importable for compatibility but is re-derived
    # from the registry on every access, so registering a scheme — in
    # tree or from a plugin — immediately widens every consumer
    # (CLI choices, differential tests, docs) without a second list to
    # keep in sync.
    if name == "SCHEME_NAMES":
        return scheme_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class WorkloadResult:
    """Per-workload outcome under one scheme."""

    label: str
    ipc: float
    assessments: int
    visible_actions: int
    leakage_bits: float
    partition_quartiles: tuple[float, float, float, float, float]

    @property
    def bits_per_assessment(self) -> float:
        return self.leakage_bits / self.assessments if self.assessments else 0.0

    @property
    def maintain_fraction(self) -> float:
        if not self.assessments:
            return 0.0
        return (self.assessments - self.visible_actions) / self.assessments


@dataclass
class SchemeRunResult:
    """Outcome of one mix under one scheme."""

    scheme: str
    workloads: list[WorkloadResult]
    total_cycles: int

    def workload(self, label: str) -> WorkloadResult:
        for result in self.workloads:
            if result.label == label:
                return result
        raise ConfigurationError(f"no workload {label!r} in this run")

    @property
    def mean_bits_per_assessment(self) -> float:
        values = [w.bits_per_assessment for w in self.workloads if w.assessments]
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_total_leakage(self) -> float:
        values = [w.leakage_bits for w in self.workloads]
        return sum(values) / len(values) if values else 0.0

    @property
    def maintain_fraction(self) -> float:
        assessments = sum(w.assessments for w in self.workloads)
        visible = sum(w.visible_actions for w in self.workloads)
        if not assessments:
            return 0.0
        return (assessments - visible) / assessments


@dataclass
class MixResult:
    """Outcome of one mix under all requested schemes."""

    mix_id: int | None
    labels: list[str]
    runs: dict[str, SchemeRunResult] = field(default_factory=dict)

    def normalized_ipc(self, scheme: str) -> dict[str, float]:
        """Per-workload IPC normalized to Static (a figure's bottom row).

        A Static baseline that retired zero instructions for some
        workload makes normalization undefined for the whole mix; this
        raises (naming the stalled workloads) instead of emitting a
        ``0.0`` placeholder, which downstream geomeans used to silently
        drop — *inflating* the reported speedup of every other workload.
        """
        if "static" not in self.runs:
            raise ConfigurationError("normalization requires a static run")
        baseline = {w.label: w.ipc for w in self.runs["static"].workloads}
        stalled = sorted(
            label for label, ipc in baseline.items() if ipc <= 0
        )
        if stalled:
            raise ConfigurationError(
                "static baseline retired zero instructions for "
                f"{', '.join(stalled)} (mix {self.mix_id!r}); normalized "
                "IPC is undefined for this mix — shorten the slice or "
                "inspect the workload instead of trusting a placeholder"
            )
        return {
            w.label: w.ipc / baseline[w.label]
            for w in self.runs[scheme].workloads
        }

    def geomean_speedup(self, scheme: str) -> float:
        """System-wide speedup over Static (geometric mean of IPC ratios).

        Every workload participates: a scheme that stalls one workload
        to zero IPC yields a geomean of exactly ``0.0`` (the
        mathematical value), where filtering non-positive ratios used to
        report the geomean of the *surviving* workloads — overstating a
        scheme precisely when it starves someone.
        """
        ratios = list(self.normalized_ipc(scheme).values())
        if not ratios:
            return 0.0
        if any(r <= 0 for r in ratios):
            return 0.0
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def mix_labels(pairs: list[tuple[str, str]] | tuple[tuple[str, str], ...]) -> list[str]:
    """Per-workload labels for a mix, disambiguating repeated pairs.

    A mix may legitimately run the same ``(spec, crypto)`` pair on two
    cores; labels must still be unique or :meth:`MixResult.normalized_ipc`
    collapses them in the baseline dict and
    :meth:`SchemeRunResult.workload` silently returns the first match.
    Repeats get a ``#2``, ``#3``, ... suffix in mix order.
    """
    counts: dict[str, int] = {}
    labels = []
    for spec, crypto in pairs:
        base = f"{spec}+{crypto}"
        counts[base] = counts.get(base, 0) + 1
        labels.append(base if counts[base] == 1 else f"{base}#{counts[base]}")
    return labels


def make_scheme(
    name: str,
    profile: RunProfile,
    num_domains: int,
    params: dict | None = None,
):
    """Instantiate a registered scheme by name for the given profile.

    The factory lives in the registry (``repro.registry.builtin`` for
    the built-ins; third parties register their own), so any registered
    scheme — not a hard-wired list — is a campaign citizen. ``params``
    are validated against the registration's declared parameter schema.
    """
    return create_scheme(name, profile, num_domains, params)


def _workload_keys(pairs, profile: RunProfile) -> list[tuple]:
    """Per-domain workload identities of a mix (spec, crypto, scale, seed)."""
    return [
        (spec, crypto, profile.workload_scale, profile.seed + index)
        for index, (spec, crypto) in enumerate(pairs)
    ]


def build_mix_system(
    pairs: list[tuple[str, str]],
    scheme_name: str,
    profile: RunProfile = SCALED,
    *,
    scheme_params: dict | None = None,
) -> MultiDomainSystem:
    """Build the system for one (mix, scheme) cell without running it.

    Domain names are the :func:`mix_labels` of ``pairs``.
    """
    domains = []
    for label, (spec, crypto, scale, seed) in zip(
        mix_labels(pairs), _workload_keys(pairs, profile)
    ):
        built = cached_build_workload(spec, crypto, scale, seed=seed)
        domains.append(DomainSpec(label, built.stream, built.core_config))
    scheme = make_scheme(scheme_name, profile, len(domains), scheme_params)
    return MultiDomainSystem(
        profile.arch(len(domains)),
        domains,
        scheme,
        quantum=profile.quantum,
        sample_interval=profile.sample_interval,
    )


def run_mix_scheme(
    pairs: list[tuple[str, str]],
    scheme_name: str,
    profile: RunProfile = SCALED,
    *,
    scheme_params: dict | None = None,
) -> SchemeRunResult:
    """Simulate one mix under one scheme.

    Batched cores read their L1 decisions from the process-wide trace
    memo (:func:`share_l1_traces`), so every scheme of a mix — and every
    later cell in the same process — reuses one walk per stream.
    """
    system = build_mix_system(
        pairs, scheme_name, profile, scheme_params=scheme_params
    )
    share_l1_traces(system, _workload_keys(pairs, profile))
    outcome = system.run(max_cycles=profile.max_cycles)
    results = [
        WorkloadResult(
            label=spec.name,
            ipc=stats.ipc,
            assessments=stats.assessments,
            visible_actions=stats.visible_actions,
            leakage_bits=stats.leakage_bits,
            partition_quartiles=stats.partition_size_quartiles(),
        )
        for spec, stats in zip(system.domains, outcome.stats)
    ]
    return SchemeRunResult(
        scheme=scheme_name,
        workloads=results,
        total_cycles=outcome.total_cycles,
    )


#: Process-level stream-trace memo: L1 service traces and monitor traces
#: are pure functions of (stream identity, L1 geometry) — plus, for a
#: monitor trace, what it encodes — so successive cells in one process —
#: the schemes of one mix, the partition sizes of one benchmark — reuse
#: each other's walks the same way ``cached_build_workload`` reuses
#: compositions. One memo and one cap serve both kinds. Cleared
#: wholesale when an insert would pass the cap, to bound memory on huge
#: campaigns.
_L1_TRACE_MEMO: dict = {}
_L1_TRACE_MEMO_CAP = 128


def _memo_insert(trace_key: tuple, build):
    trace = _L1_TRACE_MEMO.get(trace_key)
    if trace is None:
        if len(_L1_TRACE_MEMO) >= _L1_TRACE_MEMO_CAP:
            _L1_TRACE_MEMO.clear()
        trace = build()
        _L1_TRACE_MEMO[trace_key] = trace
    return trace


def _l1_key(key: tuple, arch: ArchConfig) -> tuple:
    # The L1 geometry rides the key so one memo serves mixed-profile
    # call sites without ever cross-installing.
    return (key, arch.l1_lines, arch.l1_associativity)


def _memo_trace(key: tuple, stream, arch: ArchConfig) -> L1ServiceTrace:
    """The memo's trace for workload ``key`` on ``arch``'s L1, walked lazily."""
    return _memo_insert(
        _l1_key(key, arch), lambda: L1ServiceTrace(stream, arch)
    )


def _memo_monitor_trace(
    key: tuple, stream, arch: ArchConfig, spec: tuple
) -> MonitorTrace:
    """The memo's monitor trace encoding ``spec`` for workload ``key``.

    An unfiltered trace reads the memo's L1 trace of the same stream, so
    the two share one L1 walk.
    """
    l1_trace = _memo_trace(key, stream, arch)
    return _memo_insert(
        _l1_key(key, arch) + spec,
        lambda: MonitorTrace(stream, arch, *spec, l1_trace=l1_trace),
    )


def share_l1_traces(system: MultiDomainSystem, keys: list[tuple]) -> None:
    """Swap each batched core's private traces for the memo's shared ones.

    ``keys`` holds one workload identity per domain; a key must determine
    its stream's contents exactly. Both the L1 service trace and, for a
    monitored domain, the monitor trace its built monitor needs are
    swapped. A domain with a fixed LLC partition gets a fresh LLC service
    trace over the shared L1 trace (so that is never walked twice); LLC
    traces are not memoized, since each is one (stream, partition size)
    pair. Cores on the scalar path carry no trace and are left alone.
    Results are bit-identical either way.
    """
    for key, core in zip(keys, system.cores):
        memory = core.memory
        if memory.l1_trace is None:
            continue
        memory.install_l1_trace(
            _memo_trace(key, core.stream, system.arch), core.stream
        )
        spec = memory.monitor_trace_spec
        if spec is not None:
            memory.install_monitor_trace(
                _memo_monitor_trace(key, core.stream, system.arch, spec)
            )


def _monitor_trace_specs(entries: list[tuple]) -> dict[tuple, list]:
    """Per-domain monitor-trace specs of each distinct scheme config.

    A spec depends on the scheme, its parameters and the profile, not on
    the streams, so the scheme builds its monitors once per config on a
    system of one-instruction placeholder streams: learning the specs
    then costs no workload assembly, and no transient memory a forked
    worker would inherit.
    """
    specs: dict[tuple, list] = {}
    for entry in entries:
        if len(entry) < 3 or _scheme_config(entry) in specs:
            continue
        pairs, profile, scheme, params = entry
        placeholder = DomainSpec(
            "placeholder", InstructionStream(np.zeros(1, dtype=np.int64)),
            CoreConfig(),
        )
        system = MultiDomainSystem(
            profile.arch(len(pairs)),
            [placeholder] * len(pairs),
            make_scheme(scheme, profile, len(pairs), dict(params or ()) or None),
            quantum=profile.quantum,
            sample_interval=profile.sample_interval,
        )
        specs[_scheme_config(entry)] = [
            m.monitor_trace_spec for m in system.memories
        ]
    return specs


def _scheme_config(entry: tuple) -> tuple:
    pairs, profile, scheme, params = entry
    return scheme, tuple(params or ()), profile, len(pairs)


def warm_l1_traces(entries: list[tuple]) -> int:
    """Walk every distinct stream trace a set of cells will read to its cycle.

    ``entries`` holds ``(pairs, profile)`` per upcoming cell — optionally
    ``(pairs, profile, scheme_name, scheme_params)``, which also warms
    the monitor traces that scheme's built monitors read (the feed mode,
    sizes and sampling come from the monitors themselves, so any
    registered scheme warms correctly). The parallel engine calls this
    in the *parent* process right before forking its workers, after the
    rate tables (building an Untangle scheme needs its table, or, when a
    pool worker solves it, runs under
    :func:`~repro.schemes.untangle.unsolved_rate_tables`): traces
    (and the workload builds they require) are pure functions of the
    cell inputs, so one walk here is inherited copy-on-write by every
    forked worker, which then walks nothing. Warming stops at the memo
    cap rather than evict what it warmed, and does nothing when the
    batched kernel (the only trace reader) is off. Returns the number
    of traces walked.
    """
    if not batching_enabled():
        return 0
    specs = _monitor_trace_specs(entries)
    warmed = 0
    for entry in entries:
        pairs, profile = entry[0], entry[1]
        arch = profile.arch(len(pairs))
        keys = _workload_keys(pairs, profile)
        domain_specs = (
            specs[_scheme_config(entry)] if len(entry) > 2 else [None] * len(keys)
        )
        for key, spec in zip(keys, domain_specs):
            trace_keys = [_l1_key(key, arch)]
            if spec is not None:
                trace_keys.append(_l1_key(key, arch) + spec)
            memo = [_L1_TRACE_MEMO.get(k) for k in trace_keys]
            if all(trace is not None and trace.cycle_found for trace in memo):
                continue
            if len(_L1_TRACE_MEMO) + memo.count(None) > _L1_TRACE_MEMO_CAP:
                return warmed
            spec_name, crypto, scale, seed = key
            stream = cached_build_workload(
                spec_name, crypto, scale, seed=seed
            ).stream
            traces = [_memo_trace(key, stream, arch)]
            if spec is not None:
                traces.append(_memo_monitor_trace(key, stream, arch, spec))
            for trace in traces:
                if not trace.cycle_found:
                    trace.warm()
                    warmed += 1
    return warmed


def warm_rate_tables(entries: list[tuple]) -> int:
    """Pre-solve the Rmax rate table for every distinct scheme config.

    ``entries`` holds ``(scheme_name, profile)`` — optionally
    ``(scheme_name, profile, scheme_params)`` — per upcoming cell. Like
    :func:`warm_l1_traces`, this runs in the parent right before workers
    fork: the table is a pure function of the channel model, and the
    module-level memo in :mod:`repro.schemes.untangle` is inherited
    copy-on-write, so the Dinkelbach solve happens once per campaign
    instead of once per worker that draws an untangle cell. Which
    tables a scheme needs comes from its registration's ``store_needs``
    hook, so registered third-party schemes warm automatically. Inside
    :func:`~repro.schemes.untangle.unsolved_rate_tables` (the engine's
    pool solves the tables) nothing is solved. Returns the number of
    distinct tables requested.
    """
    warmed = 0
    seen: set[tuple] = set()
    for entry in entries:
        scheme_name, profile = entry[0], entry[1]
        params = dict(entry[2]) if len(entry) > 2 and entry[2] else None
        try:
            needs = scheme_store_needs(scheme_name, profile, params)
        except ConfigurationError:
            continue
        for need in needs:
            if need[0] not in ("rmax", "rmax-worst") or need in seen:
                continue
            seen.add(need)
            if need[0] == "rmax":
                get_rate_table(need[1], capacity=need[2])
            else:
                get_worst_case_rate_table(need[1])
            warmed += 1
    return warmed


def _assemble_mix_results(
    grid: list[tuple[int | None, list[tuple[str, str]]]],
    schemes: tuple,
    profile: RunProfile,
    engine: ExecutionEngine,
    campaign: str | None = None,
) -> list[MixResult]:
    """Fan every (mix, scheme) cell of a grid through one engine run.

    ``schemes`` entries are registry names or
    :class:`~repro.registry.SchemeSelection` objects (name + parameter
    overrides + result alias) — scenario compilation reuses this exact
    function, so a declarative spec produces the same cells, in the
    same order, with the same cache keys as a hand-wired call.

    A failed cell (after the engine's retries) leaves its scheme out of
    that mix's ``runs`` dict instead of aborting the grid; the failure
    stays visible in ``engine.telemetry``. The ``campaign`` tag labels
    this grid's entries in the engine's crash-recovery journal.
    """
    selections = [SchemeSelection.of(scheme) for scheme in schemes]
    # Fail fast on unknown names / bad overrides — before any cell is
    # submitted. Otherwise a typo'd scheme just becomes a failed cell
    # and silently drops its column from every mix's ``runs``.
    for selection in selections:
        scheme_registration(selection.name).validated_params(
            dict(selection.params)
        )
    cells = [
        MixSchemeCell(
            pairs=tuple(pairs),
            scheme=selection.name,
            profile=profile,
            scheme_params=canonical_params(selection.params),
        )
        for _, pairs in grid
        for selection in selections
    ]
    outcomes = engine.run(cells, campaign=campaign)
    results = []
    cursor = 0
    for mix_id, pairs in grid:
        result = MixResult(mix_id=mix_id, labels=mix_labels(pairs))
        for selection in selections:
            outcome = outcomes[cursor]
            cursor += 1
            if outcome.ok:
                result.runs[selection.run_key] = outcome.value
        results.append(result)
    return results


def run_mix(
    mix_id: int,
    profile: RunProfile = SCALED,
    schemes: tuple | None = None,
    *,
    engine: ExecutionEngine | None = None,
) -> MixResult:
    """Simulate one paper mix under the requested schemes.

    ``schemes`` defaults to the registry's campaign set (the paper's
    Static/Time/Untangle/Shared columns); entries may be registry names
    or :class:`~repro.registry.SchemeSelection` overrides.

    Without an ``engine`` the schemes run serially in-process, uncached —
    the historical behavior. With one, scheme cells fan out over the
    engine's worker pool and hit its result cache; results are
    bit-identical either way.
    """
    engine = engine if engine is not None else ExecutionEngine()
    schemes = schemes if schemes is not None else default_campaign_schemes()
    pairs = get_mix(mix_id)
    return _assemble_mix_results(
        [(mix_id, pairs)], schemes, profile, engine, campaign=f"mix{mix_id}"
    )[0]


def run_custom_mix(
    pairs: list[tuple[str, str]],
    profile: RunProfile = SCALED,
    schemes: tuple | None = None,
    *,
    engine: ExecutionEngine | None = None,
) -> MixResult:
    """Simulate an arbitrary mix of (spec, crypto) pairs."""
    engine = engine if engine is not None else ExecutionEngine()
    schemes = schemes if schemes is not None else default_campaign_schemes()
    return _assemble_mix_results(
        [(None, list(pairs))], schemes, profile, engine, campaign="custom-mix"
    )[0]


def run_mix_grid(
    mix_ids: tuple[int, ...] | list[int],
    profile: RunProfile = SCALED,
    schemes: tuple | None = None,
    *,
    engine: ExecutionEngine | None = None,
    campaign: str | None = None,
) -> dict[int, MixResult]:
    """Simulate several paper mixes at once.

    All ``len(mix_ids) * len(schemes)`` cells are submitted in a single
    engine pass, so a parallel engine can overlap cells *across* mixes —
    the whole-figure fan-out behind Figures 10/12-17 and Table 6.
    """
    engine = engine if engine is not None else ExecutionEngine()
    schemes = schemes if schemes is not None else default_campaign_schemes()
    grid = [(mix_id, get_mix(mix_id)) for mix_id in mix_ids]
    if campaign is None:
        campaign = f"mix-grid[{','.join(str(m) for m in mix_ids)}]"
    results = _assemble_mix_results(grid, schemes, profile, engine, campaign)
    return {mix_id: result for (mix_id, _), result in zip(grid, results)}
