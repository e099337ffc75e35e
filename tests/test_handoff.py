"""Tests for the handoff study ([4]/[17] companion problem)."""

from __future__ import annotations

import pytest

from repro.handoff import HandoffConfig, HandoffScheme, run_handoff_scenario
from repro.handoff.topology import CellPort


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HandoffConfig(handoff_interval=0)
        with pytest.raises(ValueError):
            HandoffConfig(disconnect_time=-1)
        with pytest.raises(ValueError):
            HandoffConfig(handoff_interval=1.0, disconnect_time=1.0)
        with pytest.raises(ValueError):
            HandoffConfig(handoff_interval=float("nan"))
        with pytest.raises(ValueError):
            HandoffConfig(handoff_interval=float("inf"))
        with pytest.raises(ValueError):
            HandoffConfig(disconnect_time=float("nan"))


class TestCellPort:
    def make_port(self, sim):
        from repro.channel import deterministic_channel
        from repro.net.wireless import WirelessLink, WirelessLinkConfig

        link = WirelessLink(
            sim, WirelessLinkConfig(), deterministic_channel(1000, 0.01)
        )
        received = []
        link.connect(received.append)
        return CellPort(sim, "BS1", link, 128), received

    def datagram(self, size=576):
        from repro.net.packet import Datagram, TcpSegment

        return Datagram("FH", "MH", TcpSegment(0, size - 40), size)

    def test_detached_port_holds_queue(self, sim):
        port, received = self.make_port(sim)
        port.send_datagram(self.datagram())
        sim.run(until=5.0)
        assert received == []
        assert len(port.queue) == 1

    def test_attach_drains(self, sim):
        port, received = self.make_port(sim)
        port.send_datagram(self.datagram())
        port.attach()
        sim.run(until=5.0)
        assert len(received) == 5  # five fragments of a 576 B packet

    def test_one_datagram_at_a_time(self, sim):
        port, received = self.make_port(sim)
        port.attach()
        port.send_datagram(self.datagram())
        port.send_datagram(self.datagram())
        # Before any airtime elapses, only the first datagram's five
        # fragments are at the link; the second is still in the queue.
        assert len(port.queue) == 1
        sim.run(until=10.0)
        assert len(received) == 10

    def test_take_queue_empties(self, sim):
        port, _ = self.make_port(sim)
        port.send_datagram(self.datagram())
        taken = port.take_queue()
        assert len(taken) == 1
        assert port.queue.is_empty

    def test_drop_queue_counts(self, sim):
        port, _ = self.make_port(sim)
        port.send_datagram(self.datagram())
        assert port.drop_queue() == 1
        assert port.datagrams_dropped_in_handoff == 1


class TestHandoffScenario:
    def run(self, scheme, **kwargs):
        defaults = dict(
            scheme=scheme,
            handoff_interval=6.0,
            disconnect_time=0.3,
            transfer_bytes=40 * 1024,
            seed=3,
        )
        defaults.update(kwargs)
        return run_handoff_scenario(HandoffConfig(**defaults))

    def test_all_schemes_complete(self):
        for scheme in HandoffScheme:
            result = self.run(scheme)
            assert result.completed, scheme
            assert result.handoffs >= 1

    def test_baseline_stalls_on_timeouts(self):
        result = self.run(HandoffScheme.BASELINE)
        assert result.timeouts >= result.handoffs - 1
        assert result.datagrams_dropped_in_handoffs > 0
        assert result.stall_time_total > 0

    def test_fast_rtx_removes_most_timeouts(self):
        """The Caceres-Iftode result the paper's §2 summarizes."""
        baseline = sum(
            self.run(HandoffScheme.BASELINE, seed=s).timeouts for s in range(1, 5)
        )
        fast = sum(
            self.run(HandoffScheme.FAST_RTX, seed=s).timeouts for s in range(1, 5)
        )
        assert fast < baseline / 3

    def test_fast_rtx_improves_throughput(self):
        def mean(scheme):
            return sum(
                self.run(scheme, seed=s).metrics.throughput_bps for s in range(1, 5)
            ) / 4

        assert mean(HandoffScheme.FAST_RTX) > 1.2 * mean(HandoffScheme.BASELINE)

    def test_forwarding_preserves_data(self):
        result = self.run(HandoffScheme.FORWARD)
        assert result.datagrams_forwarded > 0
        assert result.datagrams_dropped_in_handoffs == 0

    def test_no_handoffs_when_interval_exceeds_transfer(self):
        result = self.run(
            HandoffScheme.BASELINE, handoff_interval=10_000.0, transfer_bytes=10 * 1024
        )
        assert result.handoffs == 0
        assert result.timeouts == 0

    def test_deterministic(self):
        a = self.run(HandoffScheme.FAST_RTX)
        b = self.run(HandoffScheme.FAST_RTX)
        assert a.metrics.duration == b.metrics.duration
