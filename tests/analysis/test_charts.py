"""Unit tests for text chart rendering."""

import pytest

from repro.analysis.charts import bar_chart, line_plot
from repro.errors import AnalysisError


class TestBarChart:
    def test_basic_rendering(self):
        text = bar_chart(
            "downtime", [("11 VMs", {"warm": 42.0, "saved": 429.0})]
        )
        assert "downtime" in text
        assert "warm" in text and "429" in text
        # The biggest value owns the full width.
        saved_line = next(line for line in text.splitlines() if "saved" in line)
        warm_line = next(line for line in text.splitlines() if "warm" in line)
        assert saved_line.count("█") > warm_line.count("█")

    def test_log_scale_compresses_range(self):
        linear = bar_chart("t", [("g", {"a": 0.08, "b": 133.0})])
        log = bar_chart("t", [("g", {"a": 0.08, "b": 133.0})], log_floor=0.01)
        a_linear = next(l for l in linear.splitlines() if l.strip().startswith("a"))
        a_log = next(l for l in log.splitlines() if l.strip().startswith("a"))
        assert a_log.count("█") > a_linear.count("█")

    def test_empty_data(self):
        assert "(no data)" in bar_chart("t", [])

    def test_validation(self):
        with pytest.raises(AnalysisError):
            bar_chart("t", [("g", {"a": 1.0})], width=2)
        with pytest.raises(AnalysisError):
            bar_chart("t", [("g", {"a": 1.0})], log_floor=0)

    def test_zero_values_render(self):
        text = bar_chart("t", [("g", {"a": 0.0})])
        assert "0 s" in text


class TestLinePlot:
    def test_multi_series_markers(self):
        text = line_plot(
            "slopes",
            {
                "fast": [(1, 1.0), (11, 2.0)],
                "slow": [(1, 10.0), (11, 170.0)],
            },
        )
        assert "o=fast" in text and "x=slow" in text
        assert "o" in text and "x" in text

    def test_axis_labels_cover_range(self):
        text = line_plot("p", {"s": [(1, 5.0), (11, 50.0)]})
        assert "11" in text
        assert "50" in text

    def test_single_point(self):
        text = line_plot("p", {"s": [(3, 7.0)]})
        assert "o" in text

    def test_empty(self):
        assert "(no data)" in line_plot("p", {})

    def test_validation(self):
        with pytest.raises(AnalysisError):
            line_plot("p", {"s": [(0, 0.0)]}, width=2)
