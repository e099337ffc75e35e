"""Unit tests for EBSN generation and the source-side response."""

from __future__ import annotations

import pytest

from repro.core.ebsn import EbsnGenerator, install_ebsn_handler
from repro.core.quench import install_quench_handler
from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import (
    Datagram,
    Fragment,
    IcmpMessage,
    IcmpType,
    TcpAck,
    TcpSegment,
)
from repro.tcp import TahoeSender, TcpConfig


def data_fragment(seq=7, src="FH"):
    seg = TcpSegment(seq=seq, payload_bytes=536)
    dg = Datagram(src, "MH", seg, 576)
    return Fragment(dg, 0, 5, 128)


def ack_fragment():
    dg = Datagram("MH", "FH", TcpAck(3), 40)
    return Fragment(dg, 0, 1, 40)


class TestEbsnGenerator:
    def make_bs(self):
        node = Node("BS")
        sent = []
        node.add_interface(sent.append, "FH")
        return node, sent

    def test_failed_data_attempt_sends_ebsn_to_source(self):
        node, sent = self.make_bs()
        gen = EbsnGenerator(node)
        gen.on_attempt_failed(data_fragment(seq=7), attempt=1)
        assert len(sent) == 1
        ebsn = sent[0]
        assert ebsn.dst == "FH"
        assert ebsn.payload.icmp_type is IcmpType.EBSN
        assert ebsn.payload.about_seq == 7

    def test_every_attempt_generates_one_ebsn(self):
        node, sent = self.make_bs()
        gen = EbsnGenerator(node)
        frag = data_fragment()
        for attempt in range(1, 6):
            gen.on_attempt_failed(frag, attempt)
        assert len(sent) == 5
        assert gen.ebsn_sent == 5

    def test_ack_traffic_does_not_trigger_ebsn(self):
        node, sent = self.make_bs()
        gen = EbsnGenerator(node)
        gen.on_attempt_failed(ack_fragment(), attempt=1)
        assert sent == []


class SenderHarness:
    def __init__(self, sim, **cfg):
        defaults = dict(packet_size=576, window_bytes=4096, transfer_bytes=50 * 536)
        defaults.update(cfg)
        self.node = Node("FH")
        self.sent = []
        self.node.add_interface(self.sent.append, "MH")
        self.sender = TahoeSender(sim, self.node, "MH", config=TcpConfig(**defaults))
        self.node.attach_agent(self.sender)

    def deliver_icmp(self, icmp_type):
        self.sender.receive(Datagram("BS", "FH", IcmpMessage(icmp_type), 40))


class TestSourceSideResponse:
    def test_ebsn_rearms_timer(self, sim):
        h = SenderHarness(sim, initial_rto=2.0)
        install_ebsn_handler(h.sender)
        h.sender.start()
        sim.schedule_at(1.5, h.deliver_icmp, IcmpType.EBSN)
        sim.run(until=3.0)
        # Without EBSN the timer fires at 2.0; the 1.5 s re-arm pushes
        # it to 3.5.
        assert h.sender.stats.timeouts == 0
        assert h.sender.stats.ebsn_received == 1
        assert h.sender.rtx_timer.expiry_time == pytest.approx(3.5)

    def test_repeated_ebsn_prevents_timeout_indefinitely(self, sim):
        h = SenderHarness(sim, initial_rto=2.0)
        install_ebsn_handler(h.sender)
        h.sender.start()
        for i in range(20):
            sim.schedule_at(1.0 + i * 1.0, h.deliver_icmp, IcmpType.EBSN)
        sim.run(until=21.0)
        assert h.sender.stats.timeouts == 0

    def test_ebsn_does_not_change_window_or_estimator(self, sim):
        h = SenderHarness(sim)
        install_ebsn_handler(h.sender)
        h.sender.start()
        cwnd, ssthresh = h.sender.cwnd, h.sender.ssthresh
        h.deliver_icmp(IcmpType.EBSN)
        assert h.sender.cwnd == cwnd
        assert h.sender.ssthresh == ssthresh
        assert h.sender.estimator.samples_taken == 0

    def test_ebsn_preserves_backoff_multiplier(self, sim):
        """The re-armed timeout keeps the current (backed-off) value."""
        h = SenderHarness(sim, initial_rto=1.0)
        install_ebsn_handler(h.sender)
        h.sender.start()
        sim.run(until=1.2)  # one timeout -> backoff_exp 1, next RTO 2.0
        assert h.sender.backoff_exp == 1
        before = h.sender.current_timeout()
        h.deliver_icmp(IcmpType.EBSN)
        assert h.sender.rtx_timer.expiry_time == pytest.approx(sim.now + before)

    def test_handler_chains_to_previous(self, sim):
        h = SenderHarness(sim)
        install_quench_handler(h.sender)
        install_ebsn_handler(h.sender)
        h.sender.start()
        h.deliver_icmp(IcmpType.SOURCE_QUENCH)  # falls through EBSN handler
        assert h.sender.stats.quench_received == 1
        h.deliver_icmp(IcmpType.EBSN)
        assert h.sender.stats.ebsn_received == 1

    def test_ebsn_after_completion_is_ignored(self, sim):
        h = SenderHarness(sim, transfer_bytes=536)
        install_ebsn_handler(h.sender)
        h.sender.start()
        h.sender.receive(Datagram("MH", "FH", TcpAck(1), 40))
        assert h.sender.completed
        h.deliver_icmp(IcmpType.EBSN)
        assert not h.sender.rtx_timer.pending
