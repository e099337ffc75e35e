"""Unit tests for the Tahoe sender against a hand-driven network."""

from __future__ import annotations

import pytest

from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import Datagram, IcmpMessage, IcmpType, TcpAck, TcpSegment
from repro.tcp import TahoeSender, TcpConfig


class Harness:
    """A sender wired to a capture interface; ACKs are injected by hand."""

    def __init__(self, sim, **config_kwargs):
        defaults = dict(packet_size=576, window_bytes=4096, transfer_bytes=100 * 536)
        defaults.update(config_kwargs)
        self.sim = sim
        self.node = Node("FH")
        self.sent = []
        self.node.add_interface(self.sent.append, "MH")
        self.sender = TahoeSender(sim, self.node, "MH", config=TcpConfig(**defaults))
        self.node.attach_agent(self.sender)

    def start(self):
        self.sender.start()
        self.sim.run(until=self.sim.now)

    def ack(self, ack_seq, at=None):
        dg = Datagram("MH", "FH", TcpAck(ack_seq), 40)
        if at is None:
            self.sender.receive(dg)
        else:
            self.sim.schedule_at(at, self.sender.receive, dg)

    def segments(self):
        return [d.payload.seq for d in self.sent if isinstance(d.payload, TcpSegment)]


class TestSlowStart:
    def test_starts_with_one_segment(self, sim):
        h = Harness(sim)
        h.start()
        assert h.segments() == [0]

    def test_window_doubles_per_rtt(self, sim):
        h = Harness(sim)
        h.start()
        h.ack(1)
        assert h.segments() == [0, 1, 2]  # cwnd 2 after first new ACK
        h.ack(2)
        h.ack(3)
        # cwnd grew to 4: segments 3,4 then 5,6 were released.
        assert h.segments() == [0, 1, 2, 3, 4, 5, 6]

    def test_cwnd_capped_by_advertised_window(self, sim):
        h = Harness(sim, window_bytes=576 * 2)  # 2 packets
        h.start()
        for i in range(1, 10):
            h.ack(i)
        assert h.sender.effective_window() == 2

    def test_congestion_avoidance_after_ssthresh(self, sim):
        h = Harness(sim, window_bytes=576 * 50)
        h.sender.ssthresh = 2.0
        h.start()
        h.ack(1)  # slow start: cwnd 1 -> 2
        assert h.sender.cwnd == pytest.approx(2.0)
        h.ack(2)  # at/above ssthresh: +1/cwnd
        assert h.sender.cwnd == pytest.approx(2.5)


class TestAckProcessing:
    def test_cumulative_ack_advances_una(self, sim):
        h = Harness(sim)
        h.start()
        h.ack(1)
        h.ack(3)
        assert h.sender.snd_una == 3

    def test_old_ack_ignored(self, sim):
        h = Harness(sim)
        h.start()
        h.ack(1)
        before = h.sender.cwnd
        h.ack(1)  # dupack (data outstanding), not a new ack
        h.ack(0)  # stale
        assert h.sender.snd_una == 1
        assert h.sender.cwnd == before

    def test_completion(self, sim):
        h = Harness(sim, transfer_bytes=3 * 536)
        done = []
        h.sender.on_complete = lambda: done.append(sim.now)
        h.start()
        h.ack(1)
        h.ack(2)
        h.ack(3)
        assert h.sender.completed
        assert done
        assert not h.sender.rtx_timer.pending

    def test_last_segment_payload_is_partial(self, sim):
        h = Harness(sim, transfer_bytes=536 + 100)
        h.start()
        h.ack(1)
        sizes = [d.payload.payload_bytes for d in h.sent]
        assert sizes == [536, 100]

    def test_bytes_accounting(self, sim):
        h = Harness(sim, transfer_bytes=2 * 536)
        h.start()
        h.ack(1)
        assert h.sender.stats.bytes_sent_wire == 2 * 576


class TestFastRetransmit:
    def test_third_dupack_triggers_retransmit(self, sim):
        h = Harness(sim)
        h.start()
        h.ack(1)
        h.ack(2)  # window now 3: segments up to 4 outstanding
        sent_before = len(h.sent)
        for _ in range(3):
            h.ack(2)
        assert h.sender.stats.fast_retransmits == 1
        assert h.segments()[sent_before] == 2  # hole retransmitted
        assert h.sender.cwnd == 1.0

    def test_fewer_dupacks_do_not_trigger(self, sim):
        h = Harness(sim)
        h.start()
        h.ack(1)
        h.ack(2)
        h.ack(2)
        h.ack(2)
        assert h.sender.stats.fast_retransmits == 0

    def test_ssthresh_halves_flight(self, sim):
        h = Harness(sim, window_bytes=576 * 20)
        h.start()
        for i in range(1, 9):
            h.ack(i)
        flight = h.sender.outstanding
        for _ in range(3):
            h.ack(8)
        assert h.sender.ssthresh == pytest.approx(max(2.0, flight / 2))

    def test_no_fast_retransmit_without_outstanding_data(self, sim):
        h = Harness(sim, transfer_bytes=536)
        h.start()
        h.ack(1)  # transfer complete
        for _ in range(5):
            h.ack(1)
        assert h.sender.stats.fast_retransmits == 0


class TestTimeout:
    def test_timeout_retransmits_first_unacked(self, sim):
        h = Harness(sim)
        h.start()
        sim.run(until=10.0)  # initial RTO 3 s, backoff doubles
        assert h.sender.stats.timeouts >= 1
        assert h.segments().count(0) >= 2

    def test_timeout_collapses_window(self, sim):
        h = Harness(sim)
        h.start()
        h.ack(1)
        h.ack(2)
        sim.run(until=20.0)
        assert h.sender.stats.timeouts >= 1
        assert h.sender.cwnd == 1.0 or h.sender.cwnd < 3

    def test_backoff_doubles_interval(self, sim):
        h = Harness(sim, initial_rto=1.0)
        h.start()
        sim.run(until=16.0)
        times = [t for t, *_ in []]  # placeholder, use stats below
        # With initial RTO 1 and doublings: expiries at 1, 3, 7, 15 s.
        assert h.sender.stats.timeouts == 4

    def test_backoff_cleared_by_fresh_ack(self, sim):
        h = Harness(sim, initial_rto=1.0)
        h.start()
        sim.run(until=1.5)  # one timeout, backoff_exp = 1
        assert h.sender.backoff_exp == 1
        # ACK covering a *retransmitted* segment does not clear backoff.
        h.ack(1, at=1.6)
        sim.run(until=1.7)
        assert h.sender.backoff_exp == 1
        # ACK for a fresh (never-retransmitted) segment clears it.
        h.ack(2, at=1.8)
        sim.run(until=1.9)
        assert h.sender.backoff_exp == 0

    def test_karn_no_sample_from_retransmitted(self, sim):
        h = Harness(sim, initial_rto=1.0)
        h.start()
        sim.run(until=1.5)  # segment 0 retransmitted
        h.ack(1, at=2.0)  # huge apparent RTT, must not be sampled
        sim.run(until=2.1)
        assert h.sender.estimator.samples_taken == 0

    def test_rtt_sampled_from_clean_exchange(self, sim):
        h = Harness(sim)
        h.start()
        h.ack(1, at=0.5)
        sim.run(until=0.6)
        assert h.sender.estimator.samples_taken == 1


class TestEbsnHook:
    def test_rearm_pushes_timeout_out(self, sim):
        h = Harness(sim, initial_rto=2.0)
        h.start()
        # Re-arm just before each expiry; no timeout should ever fire.
        for at in (1.9, 3.8, 5.7):
            sim.schedule_at(at, h.sender.rearm_rtx_timer)
        sim.run(until=7.0)
        assert h.sender.stats.timeouts == 0
        assert h.sender.stats.ebsn_timer_rearms == 3

    def test_rearm_without_outstanding_is_noop(self, sim):
        h = Harness(sim, transfer_bytes=536)
        h.start()
        h.ack(1)
        h.sender.rearm_rtx_timer()
        assert h.sender.stats.ebsn_timer_rearms == 0
        assert not h.sender.rtx_timer.pending

    def test_icmp_ignored_without_handler(self, sim):
        h = Harness(sim)
        h.start()
        msg = Datagram("BS", "FH", IcmpMessage(IcmpType.EBSN), 40)
        h.sender.receive(msg)  # must not raise or change anything
        assert h.sender.stats.ebsn_received == 0


class TestConfigValidation:
    def test_packet_smaller_than_header_rejected(self):
        with pytest.raises(ValueError):
            TcpConfig(packet_size=40)

    def test_window_smaller_than_packet_rejected(self):
        with pytest.raises(ValueError):
            TcpConfig(packet_size=576, window_bytes=500)

    def test_total_segments(self):
        cfg = TcpConfig(packet_size=576, transfer_bytes=100 * 1024, window_bytes=4096)
        assert cfg.total_segments == -(-100 * 1024 // 536)
        assert cfg.window_segments == 7

    def test_double_start_rejected(self, sim):
        h = Harness(sim)
        h.start()
        with pytest.raises(RuntimeError):
            h.sender.start()

    def test_sender_rejects_data_segment(self, sim):
        h = Harness(sim)
        h.start()
        with pytest.raises(TypeError):
            h.sender.receive(Datagram("MH", "FH", TcpSegment(0, 10), 50))
