"""Unit and integration tests for the split-connection baseline."""

from __future__ import annotations

import pytest

from repro.core.split import SplitRelay
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck, TcpSegment


def make_relay(sim, transfer=None, wireless_packet_size=576):
    node = Node("BS")
    wired_out, wireless_out = [], []
    node.add_interface(wired_out.append, "FH")
    node.add_interface(wireless_out.append, "MH")
    relay = SplitRelay(
        sim,
        node,
        transfer_bytes=transfer,
        wireless_packet_size=wireless_packet_size,
        window_bytes=4096,
    )
    node.attach_agent(relay)
    return relay, wireless_out


def wired(seq, payload=536):
    return Datagram("FH", "MH", TcpSegment(seq, payload), payload + 40)


class TestStreamSender:
    """The relay's wireless-side stream: each wired segment the relay
    accepts is pushed into it and goes out as one wireless segment."""

    def test_close_flushes_partial_tail(self, sim):
        relay, wireless_out = make_relay(sim, transfer=536 + 100)
        relay.on_wired_data(wired(0))
        relay.on_wireless_ack(Datagram("MH", "BS", TcpAck(1), 40))
        relay.on_wired_data(wired(1, payload=100))
        assert relay.wireless_sender.closed
        assert [d.payload.payload_bytes for d in wireless_out] == [536, 100]

    def test_completion_requires_close(self, sim):
        relay, _ = make_relay(sim)
        relay.on_wired_data(wired(0))
        relay.on_wireless_ack(Datagram("MH", "BS", TcpAck(1), 40))
        assert not relay.wireless_sender.completed
        relay.wireless_sender.close()
        assert relay.wireless_sender.completed

    def test_push_into_closed_stream_rejected(self, sim):
        relay, _ = make_relay(sim, transfer=536)
        relay.on_wired_data(wired(0))
        assert relay.wireless_sender.closed
        with pytest.raises(RuntimeError):
            relay.on_wired_data(wired(1, payload=10))

    def test_invalid_push_rejected(self, sim):
        """A wired segment must fit one wireless segment."""
        relay, _ = make_relay(sim, wireless_packet_size=296)
        with pytest.raises(ValueError):
            relay.on_wired_data(wired(0))

    def test_losses_still_recovered_by_timeout(self, sim):
        relay, wireless_out = make_relay(sim, transfer=5 * 536)
        for seq in range(5):
            relay.on_wired_data(wired(seq))
        sim.run(until=30.0)  # no ACKs at all: timeouts + retransmits
        stats = relay.wireless_sender.stats
        assert stats.timeouts >= 1
        assert stats.retransmissions >= 1
        seqs = [d.payload.seq for d in wireless_out]
        assert len(seqs) > len(set(seqs))  # some segment went out again


class TestSplitRelay:
    def make_relay(self, sim, transfer=3 * 536):
        node = Node("BS")
        wired_out, wireless_out = [], []
        node.add_interface(wired_out.append, "FH")
        node.add_interface(wireless_out.append, "MH")
        relay = SplitRelay(sim, node, transfer_bytes=transfer)
        node.attach_agent(relay)
        return relay, wired_out, wireless_out

    def data(self, seq, payload=536):
        return Datagram("FH", "MH", TcpSegment(seq, payload), payload + 40)

    def test_acks_wired_side_immediately(self, sim):
        relay, wired_out, _ = self.make_relay(sim)
        relay.on_wired_data(self.data(0))
        assert len(wired_out) == 1
        assert wired_out[0].payload.ack_seq == 1
        assert wired_out[0].dst == "FH"

    def test_forwards_over_wireless_connection(self, sim):
        relay, _, wireless_out = self.make_relay(sim)
        relay.on_wired_data(self.data(0))
        assert len(wireless_out) == 1
        assert wireless_out[0].dst == "MH"
        assert wireless_out[0].src == "BS"

    def test_forwards_a_short_segment_before_close(self, sim):
        """A write smaller than the wireless MSS is not held back until
        the relay closes its stream."""
        relay, _, wireless_out = self.make_relay(sim)
        relay.on_wired_data(self.data(0, payload=100))
        assert not relay.wireless_sender.closed
        assert [d.payload.payload_bytes for d in wireless_out] == [100]

    def test_out_of_order_wired_data_buffered(self, sim):
        relay, wired_out, wireless_out = self.make_relay(sim)
        relay.on_wired_data(self.data(1))
        assert wired_out[-1].payload.ack_seq == 0  # dupack toward FH
        relay.on_wired_data(self.data(0))
        assert wired_out[-1].payload.ack_seq == 2
        assert relay.bytes_accepted == 2 * 536

    def test_closes_wireless_stream_at_transfer_end(self, sim):
        relay, _, _ = self.make_relay(sim, transfer=2 * 536)
        relay.on_wired_data(self.data(0))
        assert not relay.wireless_sender.closed
        relay.on_wired_data(self.data(1))
        assert relay.wireless_sender.closed

    def test_dispatches_wireless_acks(self, sim):
        relay, _, _ = self.make_relay(sim)
        relay.on_wired_data(self.data(0))
        relay.receive(Datagram("MH", "BS", TcpAck(1), 40))
        assert relay.wireless_sender.snd_una == 1


class TestSplitEndToEnd:
    def test_split_scenario_completes(self):
        from repro.experiments.config import wan_scenario
        from repro.experiments.topology import Scheme, run_scenario

        result = run_scenario(
            wan_scenario(Scheme.SPLIT, transfer_bytes=30 * 1024, bad_period_mean=2.0)
        )
        assert result.completed
        assert result.sink.stats.useful_payload_bytes == 30 * 1024

    def test_end_to_end_semantics_violation_is_observable(self):
        """The paper's §2 criticism: the FH sees the transfer 'done'
        long before the MH has the data."""
        from repro.experiments.config import wan_scenario
        from repro.experiments.topology import Scheme, run_scenario

        result = run_scenario(
            wan_scenario(Scheme.SPLIT, transfer_bytes=30 * 1024, bad_period_mean=2.0)
        )
        assert result.sender.stats.completed_at is not None
        assert result.sink.stats.last_data_at > result.sender.stats.completed_at * 1.5

    def test_state_maintained_at_base_station(self):
        """The paper's other criticism: a whole TCP sender at the BS."""
        from repro.experiments.config import wan_scenario
        from repro.experiments.topology import Scheme, run_scenario

        result = run_scenario(
            wan_scenario(Scheme.SPLIT, transfer_bytes=30 * 1024, bad_period_mean=2.0)
        )
        assert result.split is not None
        assert result.split.buffer_occupancy_peak > 0
        assert result.split.wireless_sender.stats.segments_sent > 0

    def test_shields_fixed_host_from_wireless_losses(self):
        from repro.experiments.config import wan_scenario
        from repro.experiments.topology import Scheme, run_scenario

        result = run_scenario(
            wan_scenario(Scheme.SPLIT, transfer_bytes=30 * 1024, bad_period_mean=4.0, seed=3)
        )
        # Wireless losses are recovered by the BS's connection, not the FH's.
        assert result.metrics.timeouts == 0  # FH never times out
        assert result.split.wireless_sender.stats.timeouts > 0
