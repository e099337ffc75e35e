"""Tests for MessageSender, the interactive workload, and the EBSN heartbeat."""

from __future__ import annotations

import pytest

from repro.engine import Simulator
from repro.experiments.topology import Scheme
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck
from repro.tcp import TcpConfig
from repro.tcp.messages import MessageSender
from repro.experiments.parallel import run_unit
from repro.workloads import InteractiveConfig, LatencyStats


class MessageHarness:
    def __init__(self, sim):
        self.node = Node("FH")
        self.sent = []
        self.node.add_interface(self.sent.append, "MH")
        self.sender = MessageSender(
            sim,
            self.node,
            "MH",
            config=TcpConfig(packet_size=576, window_bytes=4096, transfer_bytes=1),
        )
        self.node.attach_agent(self.sender)
        self.sender.start()

    def ack(self, n):
        self.sender.receive(Datagram("MH", "FH", TcpAck(n), 40))


class TestMessageSender:
    def test_nothing_sent_before_a_message(self, sim):
        h = MessageHarness(sim)
        assert h.sent == []

    def test_each_message_is_one_segment(self, sim):
        h = MessageHarness(sim)
        h.sender.send_message(8)
        assert len(h.sent) == 1
        assert h.sent[0].payload.payload_bytes == 8
        assert h.sent[0].size_bytes == 48  # 8 + 40 B header

    def test_message_sizes_vary_per_segment(self, sim):
        h = MessageHarness(sim)
        h.sender.send_message(8)
        h.ack(1)
        h.sender.send_message(100)
        assert [d.payload.payload_bytes for d in h.sent] == [8, 100]

    def test_window_still_applies(self, sim):
        h = MessageHarness(sim)
        for _ in range(10):
            h.sender.send_message(8)
        # cwnd starts at 1: only the first message may fly.
        assert len(h.sent) == 1

    def test_completion_requires_close(self, sim):
        h = MessageHarness(sim)
        h.sender.send_message(8)
        h.ack(1)
        assert not h.sender.completed
        h.sender.close()
        assert h.sender.completed

    def test_idle_conversation_has_no_pending_timer(self, sim):
        """A fully acked, still open conversation must not time out."""
        h = MessageHarness(sim)
        h.sender.send_message(8)
        h.ack(1)
        sim.run(until=60.0)
        assert h.sender.stats.timeouts == 0
        assert not h.sender.rtx_timer.pending

    def test_oversized_message_rejected(self, sim):
        h = MessageHarness(sim)
        with pytest.raises(ValueError):
            h.sender.send_message(537)
        with pytest.raises(ValueError):
            h.sender.send_message(0)

    def test_closed_conversation_rejects_messages(self, sim):
        h = MessageHarness(sim)
        h.sender.close()
        with pytest.raises(RuntimeError):
            h.sender.send_message(8)

    def test_retransmission_after_timeout(self, sim):
        h = MessageHarness(sim)
        h.sender.send_message(8)
        sim.run(until=5.0)  # initial RTO 3 s, no ACK
        assert h.sender.stats.timeouts >= 1
        assert len(h.sent) >= 2
        assert h.sent[1].payload.seq == h.sent[0].payload.seq
        assert h.sender.stats.retransmissions >= 1


class TestLatencyStats:
    def test_percentiles(self):
        stats = LatencyStats.from_samples([0.1 * i for i in range(1, 101)])
        assert stats.count == 100
        assert stats.p50 == pytest.approx(5.1)
        assert stats.p95 == pytest.approx(9.6)
        assert stats.worst == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])


class TestInteractiveSession:
    def test_session_completes_and_measures_everything(self):
        result = run_unit(
            InteractiveConfig(scheme=Scheme.BASIC, keystrokes=50, seed=2)
        )
        assert result.completed
        assert result.latency.count == 50
        assert result.latency.mean > 0

    def test_ebsn_reduces_mean_latency_and_timeouts(self):
        def totals(**kwargs):
            timeouts, mean = 0, 0.0
            for seed in range(1, 4):
                r = run_unit(
                    InteractiveConfig(keystrokes=150, seed=seed, **kwargs)
                )
                timeouts += r.timeouts
                mean += r.latency.mean / 3
            return timeouts, mean

        basic_to, basic_mean = totals(scheme=Scheme.BASIC)
        ebsn_to, ebsn_mean = totals(scheme=Scheme.EBSN)
        assert ebsn_to < basic_to
        assert ebsn_mean < basic_mean

    def test_heartbeat_removes_residual_timeouts(self):
        """Interactive RTOs sit at the clock floor, below the ARQ retry
        cycle; the per-attempt EBSN stream is too sparse and the
        heartbeat fixes it."""
        def timeouts(**kwargs):
            return sum(
                run_unit(
                    InteractiveConfig(
                        scheme=Scheme.EBSN, keystrokes=150, seed=s, **kwargs
                    )
                ).timeouts
                for s in range(1, 4)
            )

        assert timeouts(ebsn_heartbeat=0.15) < 0.5 * max(timeouts(), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            InteractiveConfig(keystrokes=0)


class TestHeartbeatGenerator:
    def test_heartbeat_requires_sim(self):
        from repro.core.ebsn import EbsnGenerator

        with pytest.raises(ValueError):
            EbsnGenerator(Node("BS"), heartbeat_interval=0.1)

    def test_heartbeat_fires_between_attempts(self, sim):
        from repro.core.ebsn import EbsnGenerator
        from repro.net.packet import Fragment, TcpSegment

        node = Node("BS")
        sent = []
        node.add_interface(sent.append, "FH")
        gen = EbsnGenerator(node, sim=sim, heartbeat_interval=0.1)
        seg = TcpSegment(3, 100)
        frag = Fragment(Datagram("FH", "MH", seg, 140), 0, 1, 140)
        gen.on_attempt_failed(frag, 1)
        sim.run(until=0.55)
        # 1 per-attempt EBSN + 5 heartbeats.
        assert len(sent) == 6
        assert gen.heartbeats_sent == 5

    def test_recovery_stops_heartbeat(self, sim):
        from repro.core.ebsn import EbsnGenerator
        from repro.net.packet import Fragment, TcpSegment

        node = Node("BS")
        sent = []
        node.add_interface(sent.append, "FH")
        gen = EbsnGenerator(node, sim=sim, heartbeat_interval=0.1)
        seg = TcpSegment(3, 100)
        frag = Fragment(Datagram("FH", "MH", seg, 140), 0, 1, 140)
        gen.on_attempt_failed(frag, 1)
        sim.schedule(0.25, gen.on_recovered)
        sim.run(until=1.0)
        assert len(sent) == 3  # attempt EBSN + 2 heartbeats, then silence
