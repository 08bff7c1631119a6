"""Unit tests for timeline bucketing and report rendering."""

import pytest

from repro.analysis.report import (
    ComparisonRow,
    all_within_tolerance,
    render_comparison,
    render_table,
)
from repro.analysis.timeline import (
    AnnotatedTimeline,
    bucketize,
    mean_rate,
    sum_series,
    zero_intervals,
)
from repro.errors import AnalysisError


class TestBucketize:
    def test_counts_per_bucket(self):
        series = bucketize([0.1, 0.2, 1.5, 2.9], bucket_s=1.0, start=0, end=2.9)
        assert series == [(0.0, 2.0), (1.0, 1.0), (2.0, 1.0)]

    def test_empty_buckets_are_zero(self):
        series = bucketize([0.5, 3.5], bucket_s=1.0, start=0, end=3.5)
        assert series[1] == (1.0, 0.0)
        assert series[2] == (2.0, 0.0)

    def test_rate_scaling(self):
        series = bucketize([0, 1, 2, 3], bucket_s=2.0, start=0, end=3)
        assert series[0] == (0.0, 1.0)  # 2 events / 2 s

    def test_validation(self):
        with pytest.raises(AnalysisError):
            bucketize([], bucket_s=0)
        with pytest.raises(AnalysisError):
            bucketize([], bucket_s=1, start=5, end=1)

    def test_empty_completions(self):
        series = bucketize([], bucket_s=1.0, start=0, end=2)
        assert all(rate == 0 for _, rate in series)


class TestSeriesOps:
    def test_sum_series(self):
        a = [(0.0, 1.0), (1.0, 2.0)]
        b = [(0.0, 3.0), (1.0, 4.0)]
        assert sum_series([a, b]) == [(0.0, 4.0), (1.0, 6.0)]

    def test_sum_series_unequal_lengths(self):
        a = [(0.0, 1.0), (1.0, 2.0)]
        b = [(0.0, 3.0)]
        assert sum_series([a, b]) == [(0.0, 4.0), (1.0, 2.0)]

    def test_sum_series_misaligned_raises(self):
        with pytest.raises(AnalysisError):
            sum_series([[(0.0, 1.0)], [(0.5, 1.0)]])

    def test_sum_series_empty(self):
        assert sum_series([]) == []

    def test_mean_rate(self):
        series = [(0.0, 10.0), (1.0, 20.0), (2.0, 30.0)]
        assert mean_rate(series) == 20.0
        assert mean_rate(series, since=1.0) == 25.0
        with pytest.raises(AnalysisError):
            mean_rate(series, since=10)

    def test_zero_intervals(self):
        series = [(0.0, 5.0), (1.0, 0.0), (2.0, 0.0), (3.0, 4.0), (4.0, 0.0)]
        assert zero_intervals(series, 1.0) == [(1.0, 3.0), (4.0, 5.0)]

    def test_zero_intervals_none(self):
        assert zero_intervals([(0.0, 1.0)], 1.0) == []


class TestAnnotatedTimeline:
    def test_render_includes_phases(self):
        timeline = AnnotatedTimeline(
            [(0.0, 10.0), (1.0, 0.0), (2.0, 10.0)],
            [("reboot", 1.0, 2.0)],
        )
        text = timeline.render()
        assert "reboot" in text
        assert "peak=10" in text

    def test_render_empty(self):
        assert "empty" in AnnotatedTimeline([], []).render()


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [(1, 2.5), (30, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bb")

    def test_render_table_validates_width(self):
        with pytest.raises(AnalysisError):
            render_table(["a"], [(1, 2)])

    def test_comparison_row_ratio(self):
        row = ComparisonRow("x", 100.0, 110.0)
        assert row.ratio == pytest.approx(1.1)
        assert row.within_tolerance

    def test_comparison_row_out_of_tolerance(self):
        row = ComparisonRow("x", 100.0, 200.0, tolerance=0.35)
        assert not row.within_tolerance

    def test_zero_paper_value(self):
        assert ComparisonRow("x", 0.0, 0.0).within_tolerance
        assert not ComparisonRow("x", 0.0, 5.0).within_tolerance

    def test_render_comparison_verdict(self):
        ok = render_comparison("t", [ComparisonRow("x", 1.0, 1.0)])
        assert "SHAPE REPRODUCED" in ok
        bad = render_comparison("t", [ComparisonRow("x", 1.0, 99.0)])
        assert "DEVIATIONS PRESENT" in bad

    def test_all_within_tolerance(self):
        assert all_within_tolerance([ComparisonRow("x", 1.0, 1.1)])
        assert not all_within_tolerance(
            [ComparisonRow("x", 1.0, 1.1), ComparisonRow("y", 1.0, 9.0)]
        )

    def test_bool_formatting(self):
        text = render_table(["flag"], [(True,), (False,)])
        assert "yes" in text and "no" in text
