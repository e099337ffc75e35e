"""Unit tests for the Reno extension (fast recovery)."""

from __future__ import annotations

import pytest

from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck, TcpSegment
from repro.tcp import TcpConfig
from repro.tcp.reno import RenoSender


class Harness:
    def __init__(self, sim, **config_kwargs):
        defaults = dict(packet_size=576, window_bytes=576 * 20, transfer_bytes=100 * 536)
        defaults.update(config_kwargs)
        self.sim = sim
        self.node = Node("FH")
        self.sent = []
        self.node.add_interface(self.sent.append, "MH")
        self.sender = RenoSender(sim, self.node, "MH", config=TcpConfig(**defaults))
        self.node.attach_agent(self.sender)

    def start(self):
        self.sender.start()

    def ack(self, ack_seq):
        self.sender.receive(Datagram("MH", "FH", TcpAck(ack_seq), 40))

    def segments(self):
        return [d.payload.seq for d in self.sent if isinstance(d.payload, TcpSegment)]

    def open_window(self, acks=8):
        self.start()
        for i in range(1, acks + 1):
            self.ack(i)


class TestFastRecovery:
    def test_halves_instead_of_collapsing(self, sim):
        h = Harness(sim)
        h.open_window()
        flight = h.sender.outstanding
        for _ in range(3):
            h.ack(8)
        assert h.sender.in_fast_recovery
        assert h.sender.ssthresh == pytest.approx(max(2.0, flight / 2))
        assert h.sender.cwnd == pytest.approx(h.sender.ssthresh + 3)

    def test_retransmits_only_the_hole(self, sim):
        h = Harness(sim)
        h.open_window()
        nxt_before = h.sender.snd_nxt
        for _ in range(3):
            h.ack(8)
        assert h.segments().count(8) == 2  # original + fast retransmit
        assert h.sender.snd_nxt >= nxt_before  # no go-back-N

    def test_window_inflation_per_extra_dupack(self, sim):
        h = Harness(sim)
        h.open_window()
        for _ in range(3):
            h.ack(8)
        cwnd_at_entry = h.sender.cwnd
        h.ack(8)
        assert h.sender.cwnd == pytest.approx(cwnd_at_entry + 1)

    def test_new_ack_deflates_and_exits(self, sim):
        h = Harness(sim)
        h.open_window()
        for _ in range(3):
            h.ack(8)
        ssthresh = h.sender.ssthresh
        h.ack(12)
        assert not h.sender.in_fast_recovery
        # Deflated to ssthresh, then +1 for the new-ack growth step.
        assert h.sender.cwnd <= ssthresh + 1.5

    def test_timeout_still_collapses(self, sim):
        h = Harness(sim, initial_rto=1.0)
        h.start()
        sim.run(until=1.5)
        assert h.sender.stats.timeouts == 1
        assert h.sender.cwnd == 1.0
        assert not h.sender.in_fast_recovery

    def test_tahoe_vs_reno_divergence(self, sim):
        """After 3 dupacks Tahoe collapses to 1, Reno keeps half."""
        from repro.tcp import TahoeSender

        results = {}
        for cls in (TahoeSender, RenoSender):
            local_sim = Simulator()
            node = Node("FH")
            node.add_interface(lambda d: None, "MH")
            sender = cls(
                local_sim,
                node,
                "MH",
                config=TcpConfig(
                    packet_size=576, window_bytes=576 * 20, transfer_bytes=100 * 536
                ),
            )
            node.attach_agent(sender)
            sender.start()
            for i in range(1, 9):
                sender.receive(Datagram("MH", "FH", TcpAck(i), 40))
            for _ in range(3):
                sender.receive(Datagram("MH", "FH", TcpAck(8), 40))
            results[cls.__name__] = sender.cwnd
        assert results["TahoeSender"] == 1.0
        assert results["RenoSender"] > 3.0
