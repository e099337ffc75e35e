"""Unit and integration tests for the split-connection baseline."""

from __future__ import annotations

import pytest

from repro.core.split import SplitRelay, StreamSender
from repro.engine import Simulator
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck, TcpSegment
from repro.tcp import TcpConfig


def stream_sender(sim, captured):
    node = Node("BS")
    node.add_interface(captured.append, "MH")
    sender = StreamSender(
        sim,
        node,
        "MH",
        config=TcpConfig(packet_size=576, window_bytes=4096, transfer_bytes=1),
    )
    node.attach_agent(sender)
    sender.start()
    return sender


class TestStreamSender:
    def test_nothing_sent_before_push(self, sim):
        captured = []
        stream_sender(sim, captured)
        assert captured == []

    def test_push_releases_whole_segments_only(self, sim):
        captured = []
        sender = stream_sender(sim, captured)
        sender.push_payload(536 + 100)  # one full segment + change
        assert len(captured) == 1
        assert captured[0].payload.payload_bytes == 536

    def test_close_flushes_partial_tail(self, sim):
        captured = []
        sender = stream_sender(sim, captured)
        sender.push_payload(536 + 100)
        sender.receive(Datagram("MH", "BS", TcpAck(1), 40))
        sender.close()
        assert len(captured) == 2
        assert captured[1].payload.payload_bytes == 100

    def test_completion_requires_close(self, sim):
        captured = []
        sender = stream_sender(sim, captured)
        sender.push_payload(536)
        sender.receive(Datagram("MH", "BS", TcpAck(1), 40))
        assert not sender.completed
        sender.close()
        assert sender.completed

    def test_idle_stream_has_no_pending_timer(self, sim):
        """An idle (fully acked, still open) stream must not time out."""
        captured = []
        sender = stream_sender(sim, captured)
        sender.push_payload(536)
        sender.receive(Datagram("MH", "BS", TcpAck(1), 40))
        sim.run(until=60.0)
        assert sender.stats.timeouts == 0
        assert not sender.rtx_timer.pending

    def test_push_into_closed_stream_rejected(self, sim):
        sender = stream_sender(sim, [])
        sender.close()
        with pytest.raises(RuntimeError):
            sender.push_payload(10)

    def test_invalid_push_rejected(self, sim):
        sender = stream_sender(sim, [])
        with pytest.raises(ValueError):
            sender.push_payload(0)

    def test_losses_still_recovered_by_timeout(self, sim):
        captured = []
        sender = stream_sender(sim, captured)
        sender.push_payload(5 * 536)
        sender.close()
        sim.run(until=30.0)  # no ACKs at all: timeouts + retransmits
        assert sender.stats.timeouts >= 1
        assert sender.stats.retransmissions >= 1
        seqs = [d.payload.seq for d in captured]
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
