"""The steadiness report: result parsing and the gap between two sets."""

import pytest

import steadiness


class TestParseResult:
    def test_last_line_is_the_result(self):
        out = 'iter1: wall 12.0 s\n{"correct": true, "attempted": 12, "failed": 0, "metrics": {}}\n'
        assert steadiness.parse_result(out)["attempted"] == 12

    def test_no_json_on_last_line(self):
        assert steadiness.parse_result("check failed: exit status 1\n") is None

    def test_empty_output(self):
        assert steadiness.parse_result("") is None

    def test_non_object_json(self):
        assert steadiness.parse_result("[1, 2]") is None


class TestGap:
    def test_lower_is_better(self):
        assert steadiness.gap([10.0, 10.0, 10.0], [11.0, 11.0, 11.0], "lower") == pytest.approx(0.1)

    def test_higher_is_better(self):
        assert steadiness.gap([10.0, 10.0, 10.0], [9.0, 9.0, 9.0], "higher") == pytest.approx(0.1)

    def test_improvement_is_negative(self):
        assert steadiness.gap([10.0], [8.0], "lower") == pytest.approx(-0.2)

    def test_compares_medians(self):
        assert steadiness.gap([1.0, 10.0, 100.0], [2.0, 10.0, 50.0], "lower") == 0.0
