"""Built-in registrations: the Table 4 schemes and their components.

Importing this module (which :mod:`repro.registry` does) populates the
process-wide :data:`~repro.registry.core.REGISTRY` with everything the
paper's evaluation uses: the four Table 4 schemes, the previously
campaign-unreachable :class:`~repro.schemes.threshold.ThresholdScheme`
(plus its Section 6.4 tiered-accounting variant), the monitors and
channel model they are assembled from, and the paper-mix workload
generator. Scheme factories are exactly the bodies of the old
``make_scheme`` if-chain — registration changes how schemes are *found*,
never what they build, so cache keys and results stay bit-identical.

Registering imports no scheme, monitor or solver: each factory imports
its class when it builds one, and ``produces`` names classes by dotted
path. A command that only replays cached results therefore never loads
the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import DEFAULT_TABLE_CAPACITY, ArchConfig
from repro.errors import ConfigurationError
from repro.registry.core import REGISTRY, ParamSpec
from repro.workloads.mixes import get_mix

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Factories only read profile attributes, and the scheme and monitor
    # classes are imported where they are built, so these types are
    # annotation-only.
    from repro.harness.runconfig import RunProfile
    from repro.monitor.metrics import TimingDependentView
    from repro.monitor.umon import UMONMonitor
    from repro.schemes.schedule import ProgressSchedule
    from repro.schemes.shared import SharedScheme
    from repro.schemes.static import StaticScheme
    from repro.schemes.threshold import (
        FootprintMonitorAdapter,
        ThresholdScheme,
    )
    from repro.schemes.timebased import TimeScheme
    from repro.schemes.untangle import UntangleScheme


def untangle_schedule(profile: RunProfile) -> ProgressSchedule:
    """The P2 schedule every Untangle-style factory shares.

    Byte-for-byte the construction the old ``make_scheme`` used (same
    derived seed, same channel-model rounding) — scheme factories that
    change it change their cells' results, so it lives in one place.
    """
    from repro.schemes.schedule import ProgressSchedule
    from repro.schemes.untangle import default_channel_model

    model = default_channel_model(profile.cooldown)
    return ProgressSchedule(
        instructions_per_assessment=profile.untangle_instructions,
        cooldown=model.cooldown,
        delay=model.delay,
        seed=profile.seed + 17,
    )


# ----------------------------------------------------------------------
# Schemes (Table 4 plus the Section 6.3/6.4 extensions)
# ----------------------------------------------------------------------
@REGISTRY.scheme(
    "static",
    description="Fixed equal partitions, never resized (Table 4 baseline)",
    produces=("repro.schemes.static.StaticScheme",),
    cost_weight=1.0,
    default_for_campaign=True,
)
def _build_static(profile: RunProfile, num_domains: int) -> StaticScheme:
    from repro.schemes.static import StaticScheme

    return StaticScheme(profile.arch(num_domains))


@REGISTRY.scheme(
    "time",
    description="Time-triggered UMON resizing (insecure performance bound)",
    produces=("repro.schemes.timebased.TimeScheme",),
    cost_weight=2.0,
    default_for_campaign=True,
)
def _build_time(profile: RunProfile, num_domains: int) -> TimeScheme:
    from repro.schemes.timebased import TimeScheme

    return TimeScheme(
        profile.arch(num_domains),
        interval=profile.time_interval,
        monitor_window=profile.monitor_window,
        monitor_sampling_shift=profile.monitor_sampling_shift,
        hysteresis=profile.hysteresis,
    )


def _untangle_needs(profile: RunProfile, params: dict) -> list[tuple]:
    return [("rmax", profile.cooldown, params["table_capacity"])]


@REGISTRY.scheme(
    "untangle",
    description="P1+P2 partitioning with optimized Maintain-run accounting",
    produces=("repro.schemes.untangle.UntangleScheme",),
    params=(
        ParamSpec(
            "table_capacity",
            DEFAULT_TABLE_CAPACITY,
            (int,),
            "Maintain levels of the optimized accounting table",
        ),
    ),
    untangle_compliant=True,
    cost_weight=4.0,
    store_needs=_untangle_needs,
    default_for_campaign=True,
)
def _build_untangle(
    profile: RunProfile,
    num_domains: int,
    *,
    table_capacity: int = DEFAULT_TABLE_CAPACITY,
) -> UntangleScheme:
    from repro.schemes.untangle import UntangleScheme

    return UntangleScheme(
        profile.arch(num_domains),
        untangle_schedule(profile),
        monitor_window=profile.monitor_window,
        monitor_sampling_shift=profile.monitor_sampling_shift,
        hysteresis=profile.hysteresis,
        table_capacity=table_capacity,
    )


def _unopt_needs(profile: RunProfile, params: dict) -> list[tuple]:
    return [("rmax-worst", profile.cooldown)]


@REGISTRY.scheme(
    "untangle-unopt",
    description="Untangle charged at worst-case rates (Section 9 attacker)",
    produces=("repro.schemes.untangle.UntangleScheme",),
    untangle_compliant=True,
    cost_weight=4.0,
    store_needs=_unopt_needs,
)
def _build_untangle_unopt(
    profile: RunProfile, num_domains: int
) -> UntangleScheme:
    # Active-attacker accounting (Section 9): every assessment charged
    # at the single-cooldown rate — no Maintain credit. Memoized under
    # its own worst-case key, never shared with the optimized table.
    from repro.schemes.untangle import (
        UntangleScheme,
        get_worst_case_rate_table,
    )

    table = get_worst_case_rate_table(profile.cooldown)
    return UntangleScheme(
        profile.arch(num_domains),
        untangle_schedule(profile),
        rmax_table=table,
        monitor_window=profile.monitor_window,
        monitor_sampling_shift=profile.monitor_sampling_shift,
        hysteresis=profile.hysteresis,
    )


@REGISTRY.scheme(
    "shared",
    description="No partitioning at all (insecure sharing bound)",
    produces=("repro.schemes.shared.SharedScheme",),
    cost_weight=1.0,
    default_for_campaign=True,
)
def _build_shared(profile: RunProfile, num_domains: int) -> SharedScheme:
    from repro.schemes.shared import SharedScheme

    return SharedScheme(profile.arch(num_domains))


_THRESHOLD_PARAMS = (
    ParamSpec(
        "footprint_window",
        10_000,
        (int,),
        "Retired public memory instructions per footprint window",
    ),
    ParamSpec(
        "expand_fraction",
        0.9,
        (int, float),
        "Expand when footprint exceeds this fraction of the partition",
    ),
    ParamSpec(
        "shrink_fraction",
        0.6,
        (int, float),
        "Shrink when footprint falls below this fraction of the next size",
    ),
    ParamSpec(
        "table_capacity",
        DEFAULT_TABLE_CAPACITY,
        (int,),
        "Maintain levels of the optimized accounting table",
    ),
)


def _threshold_needs(profile: RunProfile, params: dict) -> list[tuple]:
    return [("rmax", profile.cooldown, params["table_capacity"])]


def _make_threshold(
    profile: RunProfile,
    num_domains: int,
    *,
    footprint_window: int = 10_000,
    expand_fraction: float = 0.9,
    shrink_fraction: float = 0.6,
    table_capacity: int = DEFAULT_TABLE_CAPACITY,
    tiers: tuple[int, ...] | str | None = None,
) -> ThresholdScheme:
    from repro.schemes.threshold import ThresholdScheme
    from repro.schemes.untangle import get_rate_table

    schedule = untangle_schedule(profile)
    table = get_rate_table(schedule.cooldown, capacity=table_capacity)
    return ThresholdScheme(
        profile.arch(num_domains),
        schedule,
        table,
        footprint_window=footprint_window,
        expand_fraction=expand_fraction,
        shrink_fraction=shrink_fraction,
        tiers=resolve_tiers(tiers, num_domains),
    )


@REGISTRY.scheme(
    "threshold",
    description="Footprint-threshold Expand/Shrink heuristic (Section 6.3)",
    produces=("repro.schemes.threshold.ThresholdScheme",),
    params=_THRESHOLD_PARAMS,
    untangle_compliant=True,
    cost_weight=3.0,
    store_needs=_threshold_needs,
)
def _build_threshold(
    profile: RunProfile, num_domains: int, **params
) -> ThresholdScheme:
    return _make_threshold(profile, num_domains, **params)


def resolve_tiers(
    tiers: tuple[int, ...] | list[int] | str | None, num_domains: int
) -> tuple[int, ...] | None:
    """Expand a tier preset to one tier per domain (Section 6.4).

    ``"ladder"`` assigns strictly increasing trust (domain 0 lowest —
    its resizes exchange capacity only with strictly-higher tiers and
    are never charged); ``"flat"`` is the peer-to-peer base model made
    explicit. An explicit sequence is passed through.
    """
    if tiers is None:
        return None
    if tiers == "ladder":
        return tuple(range(num_domains))
    if tiers == "flat":
        return (0,) * num_domains
    if isinstance(tiers, str):
        raise ConfigurationError(
            f"unknown tier preset {tiers!r}; known: ladder, flat, "
            "or an explicit per-domain sequence"
        )
    return tuple(int(t) for t in tiers)


@REGISTRY.scheme(
    "threshold-tiered",
    description="Threshold scheme under Section 6.4 tiered accounting",
    produces=("repro.schemes.threshold.ThresholdScheme",),
    params=_THRESHOLD_PARAMS
    + (
        ParamSpec(
            "tiers",
            "ladder",
            (str, list, tuple),
            "Per-domain tier preset (ladder/flat) or explicit sequence",
        ),
    ),
    untangle_compliant=True,
    cost_weight=3.0,
    store_needs=_threshold_needs,
)
def _build_threshold_tiered(
    profile: RunProfile, num_domains: int, *, tiers="ladder", **params
) -> ThresholdScheme:
    return _make_threshold(profile, num_domains, tiers=tiers, **params)


# ----------------------------------------------------------------------
# Monitors, channel model, workload generator (Table 2 components)
# ----------------------------------------------------------------------
@REGISTRY.monitor(
    "umon",
    description="Retired-access UMON shadow monitor (P1-compliant)",
    produces=("repro.monitor.umon.UMONMonitor",),
    untangle_compliant=True,
)
def _build_umon(profile: RunProfile, arch: ArchConfig) -> UMONMonitor:
    from repro.monitor.umon import UMONMonitor

    return UMONMonitor(
        arch.supported_partition_lines,
        window=profile.monitor_window,
        sampling_shift=profile.monitor_sampling_shift,
        timing_independent=True,
    )


@REGISTRY.monitor(
    "umon-timing",
    description="UMON observing in-flight accesses (Time baseline; not P1)",
    produces=("repro.monitor.metrics.TimingDependentView",),
)
def _build_umon_timing(
    profile: RunProfile, arch: ArchConfig
) -> TimingDependentView:
    from repro.monitor.metrics import TimingDependentView
    from repro.monitor.umon import UMONMonitor

    return TimingDependentView(
        UMONMonitor(
            arch.supported_partition_lines,
            window=profile.monitor_window,
            sampling_shift=profile.monitor_sampling_shift,
            timing_independent=True,
        )
    )


@REGISTRY.monitor(
    "footprint",
    description="Unique-lines footprint over a retired window (Section 5.2)",
    produces=("repro.schemes.threshold.FootprintMonitorAdapter",),
    params=(
        ParamSpec(
            "window",
            10_000,
            (int,),
            "Retired public memory instructions per footprint window",
        ),
    ),
    untangle_compliant=True,
)
def _build_footprint(
    profile: RunProfile, arch: ArchConfig, *, window: int = 10_000
) -> FootprintMonitorAdapter:
    from repro.schemes.threshold import FootprintMonitorAdapter

    return FootprintMonitorAdapter(window)


@REGISTRY.channel_model(
    "default",
    description="Uniform-delay covert-channel model (Section 5.3.1)",
    params=(
        ParamSpec(
            "resolution_divisor",
            16,
            (int,),
            "Attacker timing granularity as a fraction of the cooldown",
        ),
        ParamSpec(
            "horizon_cooldowns",
            4,
            (int,),
            "Sender duration horizon, in cooldowns",
        ),
    ),
)
def _build_channel_model(
    profile: RunProfile,
    *,
    resolution_divisor: int = 16,
    horizon_cooldowns: int = 4,
):
    from repro.schemes.untangle import default_channel_model

    return default_channel_model(
        profile.cooldown, resolution_divisor, horizon_cooldowns
    )


@REGISTRY.workload_generator(
    "paper-mix",
    description="The paper's 16 eight-workload SPEC+crypto mixes (Table 5)",
)
def _build_paper_mix(mix_id: int) -> list[tuple[str, str]]:
    return get_mix(mix_id)
