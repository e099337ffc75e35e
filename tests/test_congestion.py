"""Tests for ECN machinery and the wired-congestion study (§6)."""

from __future__ import annotations

import pytest

from repro.engine import Simulator
from repro.experiments.congestion import (
    CbrSink,
    CbrSource,
    CongestedScenario,
    CongestedScenarioConfig,
    run_congested_scenario,
)
from repro.experiments.topology import Scheme
from repro.metrics.eventlog import EventType, attach_to_scenario
from repro.net.link import WiredLink
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck, TcpSegment
from repro.tcp import TahoeSender, TcpConfig, TcpSink
from repro.validate.checkers import default_checkers
from repro.validate.engine import Validator


def data_datagram(seq=0, marked=False):
    dg = Datagram("FH", "MH", TcpSegment(seq, 536), 576)
    dg.ecn_marked = marked
    return dg


class TestEcnMarking:
    def test_link_marks_above_threshold(self, sim):
        link = WiredLink(sim, 8_000, 0.0, ecn_threshold=2)
        link.connect(lambda d: None)
        datagrams = [data_datagram(i) for i in range(5)]
        for dg in datagrams:
            link.send(dg)
        # First goes straight to service; queue fills: arrivals seeing
        # depth >= 2 get marked.
        assert sum(d.ecn_marked for d in datagrams) == 2
        assert link.ecn_marks == 2

    def test_no_marking_when_disabled(self, sim):
        link = WiredLink(sim, 8_000, 0.0)
        link.connect(lambda d: None)
        datagrams = [data_datagram(i) for i in range(5)]
        for dg in datagrams:
            link.send(dg)
        assert not any(d.ecn_marked for d in datagrams)

    def test_invalid_threshold(self, sim):
        with pytest.raises(ValueError):
            WiredLink(sim, 8_000, 0.0, ecn_threshold=0)


class TestEcnEcho:
    def make_sink(self, sim):
        node = Node("MH")
        acks = []
        node.add_interface(acks.append, "FH")
        sink = TcpSink(sim, node, "FH")
        node.attach_agent(sink)
        return sink, acks

    def test_marked_data_echoed_once(self, sim):
        sink, acks = self.make_sink(sim)
        sink.receive(data_datagram(0, marked=True))
        sink.receive(data_datagram(1, marked=False))
        assert [a.payload.ecn_echo for a in acks] == [True, False]
        assert sink.stats.ecn_marks_seen == 1

    def test_multiple_marks_echoed_on_successive_acks(self, sim):
        sink, acks = self.make_sink(sim)
        sink.receive(data_datagram(0, marked=True))
        sink.receive(data_datagram(1, marked=True))
        sink.receive(data_datagram(2, marked=False))
        assert [a.payload.ecn_echo for a in acks] == [True, True, False]


class TestEcnResponse:
    def make_sender(self, sim, ecn=True):
        node = Node("FH")
        node.add_interface(lambda d: None, "MH")
        sender = TahoeSender(
            sim,
            node,
            "MH",
            config=TcpConfig(packet_size=576, window_bytes=576 * 20,
                             transfer_bytes=100 * 536),
        )
        sender.ecn_enabled = ecn
        node.attach_agent(sender)
        sender.start()
        return sender

    def ack(self, sender, n, echo=False):
        sender.receive(Datagram("MH", "FH", TcpAck(n, ecn_echo=echo), 40))

    def test_echo_halves_window(self, sim):
        sender = self.make_sender(sim)
        for i in range(1, 9):
            self.ack(sender, i)
        cwnd = sender.cwnd
        self.ack(sender, 9, echo=True)
        assert sender.cwnd < cwnd
        assert sender.stats.ecn_responses == 1

    def test_at_most_one_response_per_window(self, sim):
        sender = self.make_sender(sim)
        for i in range(1, 9):
            self.ack(sender, i)
        self.ack(sender, 9, echo=True)
        cwnd_after_first = sender.cwnd
        self.ack(sender, 10, echo=True)  # same window of data
        assert sender.stats.ecn_responses == 1
        assert sender.cwnd >= cwnd_after_first

    def test_no_retransmission_on_echo(self, sim):
        sender = self.make_sender(sim)
        for i in range(1, 5):
            self.ack(sender, i)
        sent = sender.stats.segments_sent
        retx = sender.stats.retransmissions
        self.ack(sender, 5, echo=True)
        assert sender.stats.retransmissions == retx
        assert sender.stats.segments_sent >= sent  # may still grow window

    def test_echo_ignored_when_disabled(self, sim):
        sender = self.make_sender(sim, ecn=False)
        for i in range(1, 5):
            self.ack(sender, i)
        cwnd = sender.cwnd
        self.ack(sender, 5, echo=True)
        assert sender.stats.ecn_responses == 0
        assert sender.cwnd >= cwnd


class TestCbr:
    def test_rate(self, sim):
        node = Node("XS")
        sent = []
        node.add_interface(sent.append, "BS")
        source = CbrSource(sim, node, "BS", rate_bps=57_600, packet_size=576)
        source.start()
        sim.run(until=10.0)
        # 57600 bps / (576*8 bits) = 12.5 pkt/s.
        assert len(sent) == pytest.approx(125, abs=2)

    def test_sink_counts(self):
        sink = CbrSink()
        sink.receive(data_datagram())
        assert sink.packets_received == 1
        assert sink.bytes_received == 576

    def test_invalid_rate(self, sim):
        with pytest.raises(ValueError):
            CbrSource(sim, Node("XS"), "BS", rate_bps=0, packet_size=576)


class TestCongestedScenario:
    def run(self, scheme=Scheme.BASIC, ecn=False, load=0.9, seed=1, transfer=20 * 1024):
        config = CongestedScenarioConfig(
            scheme=scheme,
            ecn=ecn,
            cross_load=load,
            seed=seed,
            tcp=TcpConfig(transfer_bytes=transfer),
        )
        return run_congested_scenario(config)

    def test_completes_under_congestion(self):
        result = self.run()
        assert result.completed

    def test_congestion_produces_drops_without_ecn(self):
        drops = sum(self.run(seed=s).bottleneck_drops for s in range(1, 4))
        assert drops > 0

    def test_ecn_reduces_drops(self):
        plain = sum(self.run(ecn=False, seed=s).bottleneck_drops for s in range(1, 4))
        ecn = sum(self.run(ecn=True, seed=s).bottleneck_drops for s in range(1, 4))
        assert ecn < plain

    def test_ecn_produces_marks_and_responses(self):
        result = self.run(ecn=True)
        assert result.ecn_marks > 0
        assert result.ecn_responses > 0

    def test_ebsn_does_not_mask_congestion(self):
        """With EBSN active, congestion losses still trigger the
        source's normal recovery (dupacks/fast retransmit) — EBSN only
        suppresses *wireless-stall* timeouts."""
        recoveries = 0
        for seed in range(1, 4):
            result = self.run(scheme=Scheme.EBSN, seed=seed, transfer=40 * 1024)
            recoveries += result.fast_retransmits + result.timeouts
            assert result.ebsn_received > 0
        assert recoveries > 0

    def test_ebsn_still_helps_under_congestion(self):
        def mean_tput(scheme):
            return sum(
                self.run(scheme=scheme, seed=s, transfer=40 * 1024).metrics.throughput_bps
                for s in range(1, 4)
            ) / 3

        assert mean_tput(Scheme.EBSN) > mean_tput(Scheme.BASIC)

    def test_validation(self):
        with pytest.raises(ValueError):
            CongestedScenarioConfig(cross_load=2.0)
        with pytest.raises(ValueError):
            CongestedScenarioConfig(scheme=Scheme.SNOOP)

    def test_zero_load_means_no_cross_traffic(self):
        result = self.run(load=0.0)
        assert result.completed
        assert result.cross_packets_delivered == 0


class TestCongestedScenarioObservers:
    """The checkers and the event log attach to the congestion study
    as they do to any Scenario."""

    @pytest.mark.parametrize("ecn", [False, True], ids=["ecn-off", "ecn-on"])
    @pytest.mark.parametrize("scheme", [Scheme.BASIC, Scheme.EBSN])
    def test_checkers_pass_and_results_match(self, scheme, ecn):
        config = CongestedScenarioConfig(scheme=scheme, ecn=ecn, cross_load=0.9)
        scenario = CongestedScenario(config)
        validator = Validator(default_checkers(scenario)).attach(scenario)
        result = scenario.run()
        validator.finalize(result)
        assert validator.violations == []
        assert result.completed
        assert result.metrics == run_congested_scenario(config).metrics
        if scheme is Scheme.EBSN and ecn:
            # Both signals reached the source, so the window checkers saw
            # ECN halve the window and EBSN leave it alone.
            assert scenario.sender.stats.ecn_responses > 0
            assert scenario.sender.stats.ebsn_received > 0

    def test_event_log_sees_the_access_links(self):
        scenario = CongestedScenario(CongestedScenarioConfig(cross_load=0.9))
        log = attach_to_scenario(scenario)
        scenario.run()
        sends = {e.place for e in log.events if e.event is EventType.WIRED_SEND}
        assert {"FH->R", "XS->R"} <= sends
        acks = {e.event for e in log.events if e.place == "R->FH" and e.kind == "ack"}
        assert acks == {EventType.WIRED_SEND, EventType.WIRED_RECV}

    def test_event_log_sees_router_sends_into_bottleneck(self):
        scenario = CongestedScenario(CongestedScenarioConfig(cross_load=0.9))
        log = attach_to_scenario(scenario)
        scenario.run()
        on_bottleneck = [e for e in log.events if e.place == "R->BS"]
        sends = sum(
            e.event in (EventType.WIRED_SEND, EventType.WIRED_DROP)
            for e in on_bottleneck
        )
        assert sends == scenario.wired_down.stats.offered > 0
