"""Tests for congestion-window trace analysis."""

from __future__ import annotations

import pytest

from repro.metrics.cwnd import render_cwnd, summarize_cwnd


class TestSummary:
    def test_time_weighted_mean(self):
        trace = [(0.0, 2.0), (10.0, 4.0)]  # 2 for 10 s, then 4 for 10 s
        summary = summarize_cwnd(trace, end_time=20.0)
        assert summary.mean_cwnd == pytest.approx(3.0)
        assert summary.min_cwnd == 2.0 and summary.max_cwnd == 4.0

    def test_collapse_count(self):
        trace = [(0.0, 4.0), (5.0, 1.0), (6.0, 2.0), (9.0, 1.0)]
        summary = summarize_cwnd(trace, end_time=10.0)
        assert summary.collapses == 2

    def test_time_below_threshold(self):
        trace = [(0.0, 1.0), (2.0, 8.0)]  # below 2.0 for 2 of 10 s
        summary = summarize_cwnd(trace, end_time=10.0)
        assert summary.time_below_threshold == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_cwnd([], end_time=1.0)
        with pytest.raises(ValueError):
            summarize_cwnd([(5.0, 1.0)], end_time=1.0)
        with pytest.raises(ValueError):
            summarize_cwnd([(1.0, 1.0), (0.5, 2.0)], end_time=2.0)


class TestRender:
    def test_render_contains_marks(self):
        out = render_cwnd([(0.0, 1.0), (5.0, 7.0)], end_time=10.0, width=40)
        assert "#" in out
        assert "7.0" in out

    def test_render_empty(self):
        assert "(empty" in render_cwnd([], end_time=1.0)


class TestEndToEnd:
    def test_scenario_cwnd_dynamics(self):
        """Basic TCP's window collapses every fade; EBSN's never does."""
        from dataclasses import replace

        from repro.experiments.config import trace_example_scenario
        from repro.experiments.topology import Scheme, run_scenario

        def run(scheme):
            config = replace(trace_example_scenario(scheme), record_cwnd=True)
            result = run_scenario(config)
            return summarize_cwnd(
                result.sender.stats.cwnd_trace, end_time=result.metrics.duration
            )

        basic = run(Scheme.BASIC)
        ebsn = run(Scheme.EBSN)
        assert basic.collapses >= 5
        assert ebsn.collapses == 0
        assert ebsn.mean_cwnd > basic.mean_cwnd
