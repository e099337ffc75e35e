"""Unit tests for the snoop-style agent baseline."""

from __future__ import annotations

import pytest

from repro.core.snoop import MAX_LOCAL_RETX, SnoopAgent
from repro.engine import Simulator
from repro.net.packet import Datagram, TcpAck, TcpSegment


class Harness:
    def __init__(self, sim, **kwargs):
        self.wireless = []
        self.wired = []
        self.agent = SnoopAgent(
            sim,
            send_wireless=self.wireless.append,
            send_wired=self.wired.append,
            **kwargs,
        )

    def data(self, seq):
        seg = TcpSegment(seq=seq, payload_bytes=536)
        dg = Datagram("FH", "MH", seg, 576)
        self.agent.on_wired_data(dg)
        return dg

    def ack(self, ack_seq):
        dg = Datagram("MH", "FH", TcpAck(ack_seq), 40)
        self.agent.on_wireless_ack(dg)
        return dg


class TestCaching:
    def test_data_cached_and_forwarded(self, sim):
        h = Harness(sim)
        dg = h.data(0)
        assert h.wireless == [dg]
        assert h.agent.cached_segments == 1

    def test_new_ack_cleans_cache_and_forwards(self, sim):
        h = Harness(sim)
        h.data(0)
        h.data(1)
        ack = h.ack(1)
        assert h.agent.cached_segments == 1  # seq 0 evicted
        assert ack in h.wired

    def test_non_tcp_traffic_passes_through(self, sim):
        h = Harness(sim)
        from repro.net.packet import IcmpMessage, IcmpType

        dg = Datagram("MH", "FH", IcmpMessage(IcmpType.EBSN), 40)
        h.agent.on_wireless_ack(dg)
        assert dg in h.wired


class TestLocalRetransmission:
    def test_dupack_triggers_local_retransmit_and_suppression(self, sim):
        h = Harness(sim)
        h.data(0)
        h.data(1)
        h.ack(1)          # new ack
        dup = h.ack(1)    # duplicate: segment 1 missing
        assert h.agent.local_retransmissions == 1
        assert dup not in h.wired  # suppressed
        assert h.agent.dupacks_suppressed == 1
        # The retransmitted datagram is the cached seq-1 packet.
        assert h.wireless[-1].payload.seq == 1

    def test_dupack_without_cached_segment_passes_through(self, sim):
        h = Harness(sim)
        h.data(0)
        h.ack(1)   # cache empty now
        dup = h.ack(1)
        assert dup in h.wired

    def test_local_timer_retransmits_lowest(self, sim):
        h = Harness(sim, local_timeout=0.5)
        h.data(0)
        h.data(1)
        sim.run(until=0.6)
        assert h.agent.local_retransmissions == 1
        assert h.wireless[-1].payload.seq == 0

    def test_timer_rearms_until_cache_empty(self, sim):
        h = Harness(sim, local_timeout=0.5)
        h.data(0)
        sim.run(until=2.6)
        assert h.agent.local_retransmissions >= 4  # 0.5, 1.0, 1.5, ...

    def test_ack_cancels_timer(self, sim):
        h = Harness(sim, local_timeout=0.5)
        h.data(0)
        h.ack(1)
        sim.run(until=2.0)
        assert h.agent.local_retransmissions == 0

    def test_max_local_retx_cap(self, sim):
        h = Harness(sim, local_timeout=0.1)
        h.data(0)
        sim.run(until=5.0)
        assert h.agent.local_retransmissions == MAX_LOCAL_RETX

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            SnoopAgent(sim, lambda d: None, lambda d: None, local_timeout=0)
