"""Smoke tests for the per-figure specs and the ASCII plotter.

The real, full-scale figure regeneration lives in ``benchmarks/``;
these tests only pin the plumbing (each figure's table layout,
theoretical values, rendering) with tiny transfers.
"""

from __future__ import annotations

import pytest

from repro.experiments.ascii_plot import format_table, plot_series
from repro.experiments.config import LAN_BAD_PERIODS, WAN_PACKET_SIZES
from repro.experiments.figures import (
    lan_theoretical_mbps,
    paper_figures,
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


@pytest.fixture(scope="module")
def tables():
    """Figs 7-11 at a tiny scale, one seed per point."""
    texts, _ = paper_figures([7, 8, 9, 10, 11], scale=0.02, replications=1)
    return {n: text.splitlines() for n, text in texts.items()}


def wan_rows(lines):
    """The rows of a WAN packet-size table, from its column header on."""
    start = next(i for i, line in enumerate(lines) if line.startswith("size(B)"))
    return lines[start + 1 : start + 1 + len(WAN_PACKET_SIZES)]


class TestSweepFigures:
    def test_figure7_structure(self, tables):
        for n, scheme in ((7, "Basic TCP"), (8, "EBSN")):
            lines = tables[n]
            assert lines[0] == (
                f"Figure {n}: {scheme} (wide-area): throughput (kbps) vs packet size"
            )
            assert lines[1] == "(transfer scale 0.02, 1 replications/point)"
            rows = wan_rows(lines)
            assert [int(row.split()[0]) for row in rows] == WAN_PACKET_SIZES
            tput_th = lines[3 + len(WAN_PACKET_SIZES) + 1]
            assert tput_th == "tput_th    11.64    10.67     9.85     9.14"

    def test_figure9_has_both_schemes(self, tables):
        lines = tables[9]
        assert lines[0].startswith("Figure 9: data retransmitted (KB)")
        assert [line for line in lines if line.startswith("--")] == [
            "-- basic --",
            "-- ebsn --",
        ]
        assert len(lines) == 2 + 2 * (3 + len(WAN_PACKET_SIZES))
        assert all(float(cell) >= 0 for row in wan_rows(lines) for cell in row.split())

    def test_figure10_structure(self, tables):
        fig10, fig11 = tables[10], tables[11]
        assert fig10[0].startswith("Figure 10: LAN throughput (Mbps)")
        assert fig11[0].startswith("Figure 11: LAN data retransmitted (KB)")
        assert len(fig11) == 4 + len(LAN_BAD_PERIODS)
        rows = fig10[4 : 4 + len(LAN_BAD_PERIODS)]
        assert [float(row.split()[0]) for row in rows] == LAN_BAD_PERIODS
        assert float(rows[-1].split()[1]) == round(lan_theoretical_mbps(1.6), 3)
        assert all(float(row.split()[3]) > 0 for row in rows)  # EBSN Mbps

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
