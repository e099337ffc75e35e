"""Smoke tests for the per-figure entry points and the ASCII plotter.

The real, full-scale figure regeneration lives in ``benchmarks/``;
these tests only pin the plumbing (shapes of the returned structures,
theoretical values, rendering) with tiny transfers.
"""

from __future__ import annotations

import pytest

from repro.experiments.ascii_plot import format_table, plot_series
from repro.experiments.figures import (
    figure_7,
    figure_9,
    figure_10,
    lan_theoretical_mbps,
    trace_figure,
    wan_theoretical_kbps,
)


class TestTraceFigures:
    def test_returns_scenario_result_with_trace(self):
        result = trace_figure(3)
        assert result.trace is not None
        assert result.completed

    def test_unknown_number_rejected(self):
        with pytest.raises(ValueError):
            trace_figure(6)


class TestSweepFigures:
    def test_figure7_structure(self):
        series = figure_7(
            replications=1,
            packet_sizes=[256, 576],
            bad_periods=[1.0],
            transfer_bytes=5 * 1024,
        )
        assert set(series) == {1.0}
        assert set(series[1.0].points) == {256, 576}
        assert len(series[1.0].throughputs_kbps()) == 2

    def test_figure9_has_both_schemes(self):
        data = figure_9(
            replications=1,
            packet_sizes=[576],
            bad_periods=[1.0],
            transfer_bytes=5 * 1024,
        )
        assert set(data) == {"basic", "ebsn"}
        assert data["basic"][1.0].retransmitted_kbytes()[0] >= 0

    def test_figure10_structure(self):
        data = figure_10(
            replications=1, bad_periods=[0.8], transfer_bytes=128 * 1024
        )
        assert set(data) == {"basic", "ebsn"}
        assert data["ebsn"].points[0.8].throughput_mbps > 0

    def test_theoretical_helpers(self):
        assert wan_theoretical_kbps(1.0) == pytest.approx(11.64, abs=0.01)
        assert lan_theoretical_mbps(1.6) == pytest.approx(1.429, abs=0.01)


class TestAsciiPlot:
    def test_plot_contains_legend_and_bounds(self):
        out = plot_series(
            {"a": [(0, 0), (10, 5)], "b": [(0, 5), (10, 0)]},
            width=30,
            height=8,
            title="T",
            x_label="x",
        )
        assert "T" in out
        assert "legend: o a   x b" in out
        assert "10" in out

    def test_plot_empty(self):
        assert "(no data)" in plot_series({}, title="empty")

    def test_plot_flat_series(self):
        out = plot_series({"flat": [(0, 1), (1, 1)]})
        assert "flat" in out

    def test_plot_respects_y_bounds(self):
        out = plot_series({"a": [(0, 5)]}, y_min=0.0, height=5)
        assert "5" in out and "0" in out

    def test_format_table_alignment(self):
        out = format_table(["col", "x"], [["a", 1], ["bbbb", 22]], title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "col" in lines[1]
        assert lines[2].startswith("---")

    def test_format_table_empty_rows(self):
        out = format_table(["h1", "h2"], [])
        assert "h1" in out
