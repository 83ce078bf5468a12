"""Tests for the plugin registry (`repro.registry`).

The registry is the single source of scheme/monitor/channel/workload
names: `make_scheme`, the CLI `--schemes` choices, scenario specs, and
the conformance kit all re-derive from it, so these tests pin the
lookup contract (names in registration order, loud unknown-name
errors, typed parameter validation) and the extension channels
(temporary registrations, entry-point plugins, the drift detector).
"""

from __future__ import annotations

import pytest

import repro.registry.core as registry_core
from repro.errors import ConfigurationError
from repro.harness.experiment import SCHEME_NAMES, make_scheme, run_mix
from repro.harness.runconfig import TEST
from repro.registry import (
    REGISTRY,
    ParamSpec,
    Registration,
    SchemeSelection,
    canonical_params,
    create_scheme,
    default_campaign_schemes,
    scheme_names,
    validate_schemes,
)
from repro.registry.core import unregistered_scheme_classes
from repro.schemes.base import BaseScheme
from repro.schemes.static import StaticScheme

BUILTINS = (
    "static",
    "time",
    "untangle",
    "untangle-unopt",
    "shared",
    "threshold",
    "threshold-tiered",
)


class TestLookup:
    def test_builtin_schemes_in_registration_order(self):
        assert scheme_names() == BUILTINS

    def test_harness_scheme_names_rederive_from_registry(self):
        assert tuple(SCHEME_NAMES) == scheme_names()

    def test_campaign_defaults_are_the_paper_columns(self):
        defaults = default_campaign_schemes()
        assert set(defaults) <= set(BUILTINS)
        assert "static" in defaults and "untangle" in defaults

    def test_unknown_name_names_the_alternatives(self):
        with pytest.raises(ConfigurationError, match="registered: static"):
            REGISTRY.get("scheme", "nosuch")

    def test_validate_schemes_passes_known_and_rejects_unknown(self):
        assert validate_schemes(["static", "time"]) == ("static", "time")
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            validate_schemes(["static", "nosuch"])

    def test_other_kinds_registered(self):
        assert "umon" in REGISTRY.names("monitor")
        assert "default" in REGISTRY.names("channel-model")
        assert "paper-mix" in REGISTRY.names("workload")


class TestParamValidation:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            create_scheme("threshold", TEST, 2, params={"nope": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError, match="expects int"):
            create_scheme(
                "threshold", TEST, 2, params={"footprint_window": "big"}
            )

    def test_bool_is_not_an_int(self):
        # bool subclasses int; an int-typed parameter must still reject
        # it — `footprint_window = true` in a spec is always a mistake.
        with pytest.raises(ConfigurationError, match="got bool"):
            create_scheme(
                "threshold", TEST, 2, params={"footprint_window": True}
            )

    def test_valid_override_reaches_the_factory(self):
        scheme = create_scheme(
            "threshold", TEST, 2, params={"footprint_window": 500}
        )
        assert scheme._footprint_window == 500

    def test_tiered_preset_validated(self):
        with pytest.raises(ConfigurationError, match="expects str"):
            create_scheme("threshold-tiered", TEST, 2, params={"tiers": 3})

    def test_make_scheme_resolves_through_registry(self):
        assert isinstance(make_scheme("static", TEST, 2), StaticScheme)
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            make_scheme("nosuch", TEST, 2)


class TestGridValidation:
    def test_unknown_scheme_fails_before_any_cell_runs(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            run_mix(1, TEST, ("static", "nosuch"))

    def test_bad_override_fails_before_any_cell_runs(self):
        selection = SchemeSelection(
            name="threshold", params=canonical_params({"nope": 1})
        )
        with pytest.raises(ConfigurationError, match="no parameter"):
            run_mix(1, TEST, (selection,))


class TestTemporaryRegistration:
    def test_scoped_registration_appears_and_restores(self):
        registration = Registration(
            kind="scheme",
            name="tmp-scheme",
            factory=lambda profile, n: StaticScheme(profile.arch(n)),
        )
        assert "tmp-scheme" not in scheme_names()
        with REGISTRY.temporary(registration):
            assert "tmp-scheme" in scheme_names()
            assert REGISTRY.get("scheme", "tmp-scheme") is registration
        assert "tmp-scheme" not in scheme_names()

    def test_temporary_shadowing_restores_the_builtin(self):
        original = REGISTRY.get("scheme", "static")
        shadow = Registration(
            kind="scheme", name="static", factory=lambda *a: None
        )
        with REGISTRY.temporary(shadow):
            assert REGISTRY.get("scheme", "static") is shadow
        assert REGISTRY.get("scheme", "static") is original

    def test_duplicate_registration_without_replace_rejected(self):
        clone = Registration(
            kind="scheme", name="static", factory=lambda *a: None
        )
        with pytest.raises(ConfigurationError, match="already registered"):
            REGISTRY.register(clone)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown registration"):
            Registration(kind="gizmo", name="x", factory=lambda: None)


class _FakeEntryPoint:
    def __init__(self, name, loaded):
        self.name = name
        self.value = f"fake:{name}"
        self._loaded = loaded

    def load(self):
        if isinstance(self._loaded, Exception):
            raise self._loaded
        return self._loaded


class TestEntryPointPlugins:
    def test_plugin_callable_registers(self, monkeypatch):
        def plugin(registry):
            registry.register(
                Registration(
                    kind="scheme",
                    name="plugged",
                    factory=lambda profile, n: StaticScheme(profile.arch(n)),
                )
            )

        fresh = registry_core.Registry()
        monkeypatch.setattr(
            registry_core,
            "entry_points",
            lambda group: [_FakeEntryPoint("good", plugin)],
        )
        assert "plugged" in fresh.names("scheme")
        assert fresh.plugin_errors == []

    def test_broken_plugin_is_recorded_not_raised(self, monkeypatch):
        fresh = registry_core.Registry()
        monkeypatch.setattr(
            registry_core,
            "entry_points",
            lambda group: [
                _FakeEntryPoint("bad", RuntimeError("import exploded"))
            ],
        )
        # Lookup still works; the failure is visible, not fatal.
        assert fresh.names("scheme") == ()
        assert len(fresh.plugin_errors) == 1
        assert "import exploded" in fresh.plugin_errors[0]


class TestDriftDetector:
    def test_builtins_are_fully_covered(self):
        assert unregistered_scheme_classes() == []

    def test_uncovered_class_is_reported(self):
        # Deregister every registration producing ThresholdScheme; the
        # importable class is now invisible to campaigns — exactly what
        # the detector must flag.
        removed = {}
        for name in ("threshold", "threshold-tiered"):
            removed[name] = REGISTRY.get("scheme", name)
            REGISTRY.unregister("scheme", name)
        try:
            assert (
                "repro.schemes.threshold.ThresholdScheme"
                in unregistered_scheme_classes()
            )
        finally:
            for registration in removed.values():
                REGISTRY.register(registration)
        assert unregistered_scheme_classes() == []

    @pytest.mark.parametrize(
        "produced",
        [
            "repro.schemes.threshold.ThresholdScheme",
            pytest.param(None, id="class"),
        ],
    )
    def test_a_class_or_its_path_covers_it(self, produced):
        """``produces`` names a class by dotted path (the built-ins) or
        passes the class itself (plugins written before paths); the
        detector treats both alike."""
        from repro.schemes.threshold import ThresholdScheme

        removed = {}
        for name in ("threshold", "threshold-tiered"):
            removed[name] = REGISTRY.get("scheme", name)
            REGISTRY.unregister("scheme", name)
        try:
            stand_in = Registration(
                kind="scheme",
                name="threshold-stand-in",
                factory=removed["threshold"].factory,
                produces=(produced or ThresholdScheme,),
            )
            with REGISTRY.temporary(stand_in):
                assert unregistered_scheme_classes() == []
        finally:
            for registration in removed.values():
                REGISTRY.register(registration)

    def test_builtin_registration_imports_no_scheme_class(self):
        for entry in REGISTRY.registrations("scheme"):
            assert entry.produces
            assert all(isinstance(p, str) for p in entry.produces)

    def test_detector_sees_concrete_subclasses_only(self):
        # The abstract base itself is never demanded.
        assert BaseScheme.__name__ not in unregistered_scheme_classes()
