"""Unit tests for metrics, traces, theoretical bounds."""

from __future__ import annotations

import pytest

from repro.metrics import theoretical_throughput_bps
from repro.metrics.trace import PacketTrace
from repro.metrics.theoretical import good_state_fraction


class TestTheoretical:
    def test_paper_fig7_value(self):
        """tput_th for bad period 1 s is the 11.8 kbps line of Fig 7."""
        assert theoretical_throughput_bps(12_800, 10.0, 1.0) == pytest.approx(
            11_636, abs=1
        )

    def test_paper_fig8_value_bad4(self):
        """For bad period 4 s: 12.8 * 10/14 = 9.14 kbps (the EBSN target)."""
        assert theoretical_throughput_bps(12_800, 10.0, 4.0) == pytest.approx(
            9_143, abs=1
        )

    def test_lan_values(self):
        assert theoretical_throughput_bps(2e6, 4.0, 1.6) == pytest.approx(
            1.4286e6, rel=1e-3
        )

    def test_good_fraction(self):
        assert good_state_fraction(10, 4) == pytest.approx(10 / 14)

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_throughput_bps(0, 10, 1)
        with pytest.raises(ValueError):
            good_state_fraction(-1, 1)


class TestPacketTrace:
    def make_trace(self):
        trace = PacketTrace()
        trace.record_send(1.0, 0, False)
        trace.record_send(2.0, 1, False)
        trace.record_send(5.0, 1, True)
        trace.record_send(5.5, 2, False)
        return trace

    def test_counts(self):
        trace = self.make_trace()
        assert len(trace) == 4
        assert trace.first_transmissions == 3
        assert trace.retransmissions == 1

    def test_transmissions_of(self):
        trace = self.make_trace()
        assert trace.transmissions_of(1) == [2.0, 5.0]
        assert trace.transmissions_of(99) == []

    def test_window_query(self):
        trace = self.make_trace()
        entries = trace.transmissions_between(1.5, 5.2)
        assert [e.seq for e in entries] == [1, 1]

    def test_idle_gaps(self):
        trace = self.make_trace()
        gaps = trace.idle_gaps(min_gap=2.0)
        assert gaps == [(2.0, 5.0)]

    def test_idle_gaps_none(self):
        assert self.make_trace().idle_gaps(min_gap=10.0) == []

    def test_render_contains_marks(self):
        out = self.make_trace().render(width=40, title="Basic TCP")
        assert "Basic TCP" in out
        assert "R" in out  # the retransmission of seq 1
        assert "." in out

    def test_render_empty(self):
        assert "(empty trace)" in PacketTrace().render(title="x")

    def test_vertical_axis_wraps_at_90(self):
        trace = PacketTrace()
        trace.record_send(1.0, 95, False)
        out = trace.render(width=20)
        assert "  5 |" in out  # 95 mod 90


class TestConnectionMetrics:
    def test_end_to_end_accounting(self, sim):
        """compute_metrics over a real (tiny, error-free) transfer."""
        from repro.experiments.config import wan_scenario
        from repro.experiments.topology import run_scenario

        config = wan_scenario(transfer_bytes=10 * 536, bad_period_mean=0.001,
                              good_period_mean=1e6, record_trace=True)
        result = run_scenario(config)
        m = result.metrics
        assert result.completed
        assert m.goodput == pytest.approx(1.0)
        assert m.retransmissions == 0
        assert m.segments_sent == 10
        assert m.bytes_sent_wire == 10 * 576
        assert m.useful_wire_bytes == 10 * 576
        # payload-based throughput < wire-based throughput
        assert m.throughput_bps < m.wire_throughput_bps
        assert m.throughput_kbps == pytest.approx(m.throughput_bps / 1000)

    def test_metrics_require_started_sender(self, sim):
        from repro.metrics.stats import compute_metrics
        from repro.net.node import Node
        from repro.tcp import TahoeSender, TcpConfig, TcpSink

        node = Node("FH")
        node.add_interface(lambda d: None, "MH")
        sender = TahoeSender(sim, node, "MH", config=TcpConfig())
        sink = TcpSink(sim, node, "FH")
        with pytest.raises(ValueError):
            compute_metrics(sender, sink)


class TestEbsnPrediction:
    def test_prediction_formula(self):
        from repro.metrics.theoretical import predicted_ebsn_throughput_bps

        predicted = predicted_ebsn_throughput_bps(12_800, 10.0, 4.0, 1536)
        assert predicted == pytest.approx(9143 * 1496 / 1536, rel=1e-3)

    def test_prediction_validates_against_simulation(self):
        """The analytic model brackets measured EBSN throughput."""
        from repro.experiments.config import wan_scenario
        from repro.experiments.topology import Scheme, run_scenario
        from repro.metrics.theoretical import predicted_ebsn_throughput_bps

        measured = 0.0
        seeds = 6
        for seed in range(1, seeds + 1):
            result = run_scenario(
                wan_scenario(
                    Scheme.EBSN,
                    packet_size=1536,
                    bad_period_mean=2.0,
                    transfer_bytes=50 * 1024,
                    seed=seed,
                    record_trace=False,
                )
            )
            measured += result.metrics.throughput_bps / seeds
        predicted = predicted_ebsn_throughput_bps(12_800, 10.0, 2.0, 1536)
        assert 0.8 * predicted < measured < 1.05 * predicted

    def test_validation_error(self):
        from repro.metrics.theoretical import predicted_ebsn_throughput_bps

        with pytest.raises(ValueError):
            predicted_ebsn_throughput_bps(12_800, 10, 1, packet_size=40)
