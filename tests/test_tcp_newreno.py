"""Unit tests for the NewReno extension (partial-ACK recovery)."""

from __future__ import annotations

import pytest

from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck, TcpSegment
from repro.tcp import TcpConfig
from repro.tcp.newreno import NewRenoSender


class Harness:
    def __init__(self, sim):
        self.node = Node("FH")
        self.sent = []
        self.node.add_interface(self.sent.append, "MH")
        self.sender = NewRenoSender(
            sim,
            self.node,
            "MH",
            config=TcpConfig(
                packet_size=576, window_bytes=576 * 20, transfer_bytes=100 * 536
            ),
        )
        self.node.attach_agent(self.sender)
        self.sender.start()

    def ack(self, n):
        self.sender.receive(Datagram("MH", "FH", TcpAck(n), 40))

    def segments(self):
        return [d.payload.seq for d in self.sent if isinstance(d.payload, TcpSegment)]

    def enter_recovery(self, acks=8):
        for i in range(1, acks + 1):
            self.ack(i)
        for _ in range(3):
            self.ack(acks)  # three dupacks: hole at `acks`


class TestPartialAcks:
    def test_partial_ack_retransmits_next_hole(self, sim):
        h = Harness(sim)
        h.enter_recovery()
        assert h.sender.in_fast_recovery
        nxt = h.sender.snd_nxt
        # The retransmitted seq-8 arrives, but seq-9 is also lost:
        # partial ACK up to 9.
        h.ack(9)
        assert h.sender.in_fast_recovery  # stays in recovery
        assert h.segments().count(9) == 2  # hole 9 retransmitted at once
        assert h.sender.snd_una == 9

    def test_full_ack_exits_recovery(self, sim):
        h = Harness(sim)
        h.enter_recovery()
        recover = h.sender._recover_seq
        h.ack(recover)
        assert not h.sender.in_fast_recovery

    def test_multiple_holes_recovered_without_timeout(self, sim):
        """A burst that clips 3 segments is healed hole-by-hole."""
        h = Harness(sim)
        h.enter_recovery()  # hole at 8; suppose 9 and 10 also lost
        h.ack(9)
        h.ack(10)
        h.ack(h.sender._recover_seq)
        assert h.sender.stats.timeouts == 0
        assert h.segments().count(9) == 2
        assert h.segments().count(10) == 2

    def test_reno_vs_newreno_on_multi_loss(self, sim):
        """Reno needs another dupack episode per hole; NewReno does not."""
        from repro.tcp.reno import RenoSender

        h = Harness(sim)
        h.enter_recovery()
        h.ack(9)  # partial
        # NewReno has already retransmitted 9; Reno at this point would
        # have deflated and would wait for three more dupacks.
        assert h.sender.in_fast_recovery

    def test_end_to_end_scenario(self):
        from repro.experiments.config import wan_scenario
        from repro.experiments.topology import run_scenario

        result = run_scenario(
            wan_scenario(
                transfer_bytes=20 * 1024, bad_period_mean=2.0, tcp_variant="newreno"
            )
        )
        assert result.completed
