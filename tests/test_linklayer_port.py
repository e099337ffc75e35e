"""Unit/integration tests for the wireless port and its ARQ.

The harness builds two ports facing each other over a duplex wireless
hop with a controllable deterministic channel, so tests can place
transmissions precisely inside good or bad periods.
"""

from __future__ import annotations

import pytest

from repro.channel import deterministic_channel
from repro.engine import RandomStreams, Simulator
from repro.linklayer import ArqConfig, LinkLayerMode, WirelessPort
from repro.linklayer.port import FeedbackHooks
from repro.net.packet import Datagram, TcpSegment
from repro.net.wireless import WirelessLink, WirelessLinkConfig


class RecordingHooks(FeedbackHooks):
    def __init__(self):
        self.failed = []
        self.discarded = []
        self.depths = []

    def on_attempt_failed(self, fragment, attempt):
        self.failed.append((fragment.datagram.uid, attempt))

    def on_frame_discarded(self, fragment):
        self.discarded.append(fragment.datagram.uid)

    def on_queue_depth(self, depth):
        self.depths.append(depth)


def make_datagram(size=576, seq=0):
    seg = TcpSegment(seq=seq, payload_bytes=size - 40)
    return Datagram("FH", "MH", seg, size)


class Hop:
    """BS-side and MH-side ports over one deterministic channel."""

    def __init__(
        self,
        sim,
        good=1000.0,
        bad=1.0,
        mode=LinkLayerMode.ARQ,
        arq: ArqConfig | None = None,
    ):
        streams = RandomStreams(99)
        self.channel = deterministic_channel(good, bad)
        cfg = WirelessLinkConfig()
        self.down = WirelessLink(sim, cfg, self.channel, name="down")
        self.up = WirelessLink(sim, cfg, self.channel, name="up")
        self.delivered_mh = []
        self.delivered_bs = []
        self.hooks = RecordingHooks()
        arq = arq or ArqConfig(
            ack_timeout=0.12, rtmax=13, backoff_min=0.02, backoff_max=0.05
        )
        # A port's ``deliver`` receives datagrams arriving *at* that
        # port: downlink traffic is delivered by the MH-side port.
        self.bs = WirelessPort(
            sim,
            "bs",
            out_link=self.down,
            deliver=self.delivered_bs.append,
            mode=mode,
            arq_config=arq,
            rng=streams.stream("bs"),
            feedback=self.hooks,
        )
        self.mh = WirelessPort(
            sim,
            "mh",
            out_link=self.up,
            deliver=self.delivered_mh.append,
            mode=mode,
            arq_config=arq,
            rng=streams.stream("mh"),
        )
        self.down.connect(self.mh.receive_frame)
        self.up.connect(self.bs.receive_frame)


class TestPlainMode:
    def test_delivery_in_good_state(self, sim):
        hop = Hop(sim, mode=LinkLayerMode.PLAIN)
        dg = make_datagram(576)
        hop.bs.send_datagram(dg)
        sim.run()
        assert hop.delivered_mh == [dg]

    def test_loss_in_bad_state_is_permanent(self, sim):
        hop = Hop(sim, good=0.5, bad=100.0, mode=LinkLayerMode.PLAIN)
        sim.schedule(1.0, hop.bs.send_datagram, make_datagram(576))
        sim.run(until=50.0)
        assert hop.delivered_mh == []

    def test_one_lost_fragment_kills_datagram(self, sim):
        # Good period ends at 0.35 s: fragments 1-4 of five cross, the
        # straddling/bad ones die, so the datagram never reassembles.
        hop = Hop(sim, good=0.35, bad=1000.0, mode=LinkLayerMode.PLAIN)
        hop.bs.send_datagram(make_datagram(576))
        sim.run(until=100.0)
        assert hop.delivered_mh == []
        assert hop.mh.reassembler.pending <= 1  # partial, later swept

    def test_plain_mode_needs_no_rng(self, sim):
        channel = deterministic_channel(10, 1)
        link = WirelessLink(sim, WirelessLinkConfig(), channel)
        WirelessPort(sim, "p", out_link=link, deliver=lambda d: None)

    def test_arq_mode_requires_rng(self, sim):
        channel = deterministic_channel(10, 1)
        link = WirelessLink(sim, WirelessLinkConfig(), channel)
        with pytest.raises(ValueError):
            WirelessPort(
                sim, "p", out_link=link, deliver=lambda d: None, mode=LinkLayerMode.ARQ
            )


class TestArqGoodState:
    def test_delivery_and_link_acks(self, sim):
        hop = Hop(sim)
        dg = make_datagram(576)
        hop.bs.send_datagram(dg)
        sim.run(until=5.0)
        assert hop.delivered_mh == [dg]
        assert hop.bs.stats.link_acks_received == 5  # one per fragment
        assert hop.bs.stats.ack_timeouts == 0
        assert not hop.bs.busy

    def test_multiple_datagrams_in_order(self, sim):
        hop = Hop(sim)
        datagrams = [make_datagram(576, seq=i) for i in range(4)]
        for dg in datagrams:
            hop.bs.send_datagram(dg)
        sim.run(until=20.0)
        assert hop.delivered_mh == datagrams

    def test_bidirectional_traffic(self, sim):
        hop = Hop(sim)
        down_dg = make_datagram(576)
        up_dg = Datagram("MH", "FH", TcpSegment(0, 40), 80)
        hop.bs.send_datagram(down_dg)
        hop.mh.send_datagram(up_dg)
        sim.run(until=5.0)
        assert hop.delivered_mh == [down_dg]
        assert hop.delivered_bs == [up_dg]

    def test_window_limits_outstanding(self, sim):
        arq = ArqConfig(ack_timeout=0.12, window=2, backoff_min=0.02, backoff_max=0.05)
        hop = Hop(sim, arq=arq)
        hop.bs.send_datagram(make_datagram(1536))
        assert len(hop.bs._outstanding) <= 2
        sim.run(until=10.0)
        assert len(hop.delivered_mh) == 1


class TestArqRecovery:
    def test_rides_out_short_fade(self, sim):
        # Fade 0.5 s, ARQ horizon 13 * ~0.2 s >> fade.
        hop = Hop(sim, good=0.3, bad=0.5)
        dg = make_datagram(576)
        hop.bs.send_datagram(dg)
        sim.run(until=30.0)
        assert hop.delivered_mh == [dg]
        assert hop.bs.stats.link_retransmissions > 0

    def test_feedback_on_every_failed_attempt(self, sim):
        hop = Hop(sim, good=0.3, bad=0.5)
        hop.bs.send_datagram(make_datagram(128))
        sim.run(until=30.0)
        assert len(hop.hooks.failed) == hop.bs.stats.ack_timeouts
        attempts = [a for (_, a) in hop.hooks.failed]
        assert attempts == sorted(attempts)  # monotone per frame

    def test_discard_after_rtmax(self, sim):
        arq = ArqConfig(
            ack_timeout=0.12, rtmax=3, backoff_min=0.02, backoff_max=0.05
        )
        hop = Hop(sim, good=0.2, bad=1000.0, arq=arq)
        # Send inside the (effectively endless) bad period.
        sim.schedule(0.5, hop.bs.send_datagram, make_datagram(128))
        sim.run(until=500.0)
        assert hop.bs.stats.frames_discarded >= 1
        assert hop.hooks.discarded
        assert hop.delivered_mh == []
        assert len(hop.hooks.failed) == 3  # one EBSN trigger per attempt

    def test_sibling_fragments_dropped_on_discard(self, sim):
        arq = ArqConfig(
            ack_timeout=0.12, rtmax=2, backoff_min=0.02, backoff_max=0.05, window=1
        )
        hop = Hop(sim, good=0.05, bad=1000.0, arq=arq)
        hop.bs.send_datagram(make_datagram(576))  # 5 fragments
        sim.run(until=500.0)
        assert hop.bs.stats.frames_discarded >= 1
        assert hop.bs.stats.siblings_dropped >= 1
        assert not hop.bs.busy

    def test_queue_depth_reported(self, sim):
        hop = Hop(sim)
        hop.bs.send_datagram(make_datagram(576))
        assert hop.hooks.depths and hop.hooks.depths[0] == 5


class TestInOrderDelivery:
    def test_datagrams_never_reordered_across_fade(self, sim):
        hop = Hop(sim, good=0.9, bad=0.6)
        datagrams = [make_datagram(128 + 40, seq=i) for i in range(20)]
        for i, dg in enumerate(datagrams):
            sim.schedule(i * 0.12, hop.bs.send_datagram, dg)
        sim.run(until=60.0)
        got = [d.payload.seq for d in hop.delivered_mh]
        assert got == sorted(got)
        assert len(got) == 20

    def test_skip_marker_releases_buffered_frames(self, sim):
        """Receiver semantics: a SKIP for the head gap drains the buffer."""
        from repro.net.packet import Fragment, data_frame, skip_frame

        hop = Hop(sim)
        buffered = []
        hop.mh.deliver = buffered.append
        for seq in (1, 2):
            dg = make_datagram(128, seq=seq)
            frame = data_frame(Fragment(dg, 0, 1, 128))
            frame.link_seq = seq
            hop.mh.receive_frame(frame)
        assert buffered == []  # held: waiting for link_seq 0
        hop.mh.receive_frame(skip_frame(0))
        assert [d.payload.seq for d in buffered] == [1, 2]

    def test_discard_emits_skip_frame(self, sim):
        """Transmitter semantics: a discard queues a SKIP for its slot."""
        from repro.net.packet import FrameKind

        arq = ArqConfig(
            ack_timeout=0.12, rtmax=2, backoff_min=0.02, backoff_max=0.05
        )
        hop = Hop(sim, good=0.2, bad=1000.0, arq=arq)
        kinds = []
        original = hop.down.send

        def spy(frame, on_tx_complete=None):
            kinds.append(frame.kind)
            original(frame, on_tx_complete)

        hop.down.send = spy
        sim.schedule(0.5, hop.bs.send_datagram, make_datagram(128))
        sim.run(until=100.0)
        assert hop.bs.stats.frames_discarded >= 1
        assert FrameKind.SKIP in kinds

    def test_gap_flush_fallback(self, sim):
        """If even the SKIP dies, the flush timer eventually unblocks."""
        arq = ArqConfig(
            ack_timeout=0.1,
            rtmax=1,
            backoff_min=0.01,
            backoff_max=0.02,
            window=4,
        )
        hop = Hop(sim, good=0.45, bad=10.0, arq=arq)
        # Four single-fragment datagrams: some cross before the fade,
        # stragglers die with rtmax=1 (skips die too, inside the fade).
        for i in range(4):
            hop.bs.send_datagram(make_datagram(128 + 40, seq=i))
        sim.schedule(10.6, hop.bs.send_datagram, make_datagram(128 + 40, seq=99))
        sim.run(until=30.0)
        seqs = [d.payload.seq for d in hop.delivered_mh]
        assert 99 in seqs  # later datagram not stuck behind the dead gap
