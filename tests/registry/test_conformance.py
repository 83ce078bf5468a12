"""Tests for the scheme conformance kit (`repro.registry.conformance`).

The kit is itself a test harness, so these tests check the harness:
passing schemes pass, deliberately broken schemes fail with the right
check named, skips are not failures, and the secret-swap check catches
the exact leak class it was built for (a monitor fed through
secret-warmed live-L1 state — the bug that motivated the shadow
monitor filter in `repro.sim.hierarchy`).
"""

from __future__ import annotations

import pytest

from repro.core.principles import (
    PrincipleViolation,
    require_progress_based_schedule,
    require_timing_independent_metric,
)
from repro.harness.runconfig import TEST
from repro.registry import REGISTRY
from repro.registry.conformance import (
    QUICK_PAIRS,
    SECRETS,
    ConformanceCheck,
    ConformanceReport,
    _check_action_leakage,
    _check_principles,
    _victim_action_sequence,
    check_registration_drift,
    run_all,
    run_scheme_conformance,
)


class TestReportModel:
    def test_ok_requires_no_failures(self):
        report = ConformanceReport(scheme="x", profile_name="test")
        report.checks.append(ConformanceCheck("a", "passed"))
        report.checks.append(ConformanceCheck("b", "skipped", "why"))
        assert report.ok
        report.checks.append(ConformanceCheck("c", "failed", "boom"))
        assert not report.ok

    def test_check_lookup(self):
        report = ConformanceReport(scheme="x", profile_name="test")
        report.checks.append(ConformanceCheck("a", "passed", "d"))
        assert report.check("a").detail == "d"
        with pytest.raises(Exception, match="no conformance check"):
            report.check("zzz")


class TestPrincipleMessages:
    """Satellite regression: structural non-conformance (no attribute)
    is reported distinctly from a declared `False`."""

    def test_missing_attribute_is_structural(self):
        with pytest.raises(PrincipleViolation, match="never declares"):
            require_timing_independent_metric(object())
        with pytest.raises(PrincipleViolation, match="never declares"):
            require_progress_based_schedule(object())

    def test_declared_false_is_timing_dependence(self):
        class TimingMetric:
            timing_independent = False

        class TimeSchedule:
            progress_based = False

        with pytest.raises(
            PrincipleViolation, match="timing_independent=False"
        ):
            require_timing_independent_metric(TimingMetric())
        with pytest.raises(
            PrincipleViolation, match="progress_based=False"
        ):
            require_progress_based_schedule(TimeSchedule())


class TestChecks:
    def test_principles_fail_for_a_time_based_scheme(self):
        # `time` never claims compliance (the battery skips it), but
        # pointed at the checker directly its schedule must be rejected
        # — proving the check has teeth.
        registration = REGISTRY.get("scheme", "time")
        with pytest.raises(PrincipleViolation):
            _check_principles(registration, TEST, QUICK_PAIRS[:1])

    def test_principles_pass_for_untangle(self):
        registration = REGISTRY.get("scheme", "untangle")
        detail = _check_principles(registration, TEST, QUICK_PAIRS[:1])
        assert "P1-certified" in detail and "P2-certified" in detail

    def test_action_leakage_detects_the_time_scheme(self):
        registration = REGISTRY.get("scheme", "time")
        with pytest.raises(AssertionError, match="leaks through actions"):
            _check_action_leakage(registration, TEST, QUICK_PAIRS[:1])


class TestShadowMonitorFilterRegression:
    """Regression for the P1 bug the kit found: the monitor used to be
    filtered by the *live* L1, which secret-annotated accesses still
    warm — so the secret chose which public accesses the monitor saw,
    and untangle's resize sequence diverged across secret swaps."""

    @pytest.mark.parametrize("spec,crypto", [("gcc_0", "RSA-2048")])
    def test_untangle_actions_invariant_under_secret_swap(
        self, spec, crypto
    ):
        sequences = {
            secret: _victim_action_sequence(
                "untangle", TEST, spec, crypto, secret
            )
            for secret in SECRETS
        }
        base, swapped = sequences.values()
        assert len(base) > 0, "vacuous: no resize decisions at all"
        assert base == swapped


class TestBattery:
    def test_static_quick_battery_passes(self):
        report = run_scheme_conformance("static", TEST, quick=True)
        assert report.ok
        # Baselines skip the compliance-claim checks, not fail them.
        assert report.check("principles").status == "skipped"
        assert report.check("action-leakage").status == "skipped"
        assert report.check("kernel-identity").status == "passed"
        assert report.check("trace-sharing").status == "passed"
        assert report.check("store-tokens").status == "passed"
        assert report.check("telemetry").status == "passed"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(Exception, match="unknown scheme"):
            run_scheme_conformance("nosuch", TEST)

    def test_run_all_scopes_to_named_schemes(self):
        reports = run_all(["static"], TEST, quick=True, drift=False)
        assert [r.scheme for r in reports] == ["static"]

    def test_run_all_drift_report_leads(self):
        reports = run_all(["static"], TEST, quick=True, drift=True)
        assert reports[0].scheme == "<registry>"
        assert reports[0].check("registration-drift").status == "passed"

    def test_drift_detector_passes_on_the_builtin_set(self):
        report = check_registration_drift()
        assert report.ok
