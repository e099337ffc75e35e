"""Unit tests for the shared downlink radio."""

from __future__ import annotations

import random

import pytest

from repro.channel import deterministic_channel
from repro.csdp import DownlinkRadio, FifoScheduler, RoundRobinScheduler
from repro.net.packet import Datagram, TcpSegment
from repro.net.wireless import WirelessLinkConfig


def datagram(dst="MH0", size=128):
    return Datagram("FH", dst, TcpSegment(0, max(size - 40, 1)), size)


class Harness:
    def __init__(self, sim, dests=("MH0", "MH1"), good=1000.0, bad=0.01):
        self.channels = {d: deterministic_channel(good, bad) for d in dests}
        self.delivered = []
        self.radio = DownlinkRadio(
            sim,
            WirelessLinkConfig(),
            self.channels,
            RoundRobinScheduler(),
            rng=random.Random(5),
            deliver=self.delivered.append,
        )


class TestTiming:
    def test_airtime_and_turnaround(self, sim):
        h = Harness(sim)
        # 128 B -> 192 B air -> 80 ms at 19.2 kbps.
        assert h.radio.tx_time(128) == pytest.approx(0.08)
        # turnaround = 2 x 2 ms prop + 12 B air ACK (5 ms).
        assert h.radio.turnaround == pytest.approx(0.009)

    def test_single_delivery(self, sim):
        h = Harness(sim)
        h.radio.send_datagram(datagram())
        sim.run(until=1.0)
        assert len(h.delivered) == 1
        assert h.radio.stats.attempts == 1

    def test_one_frame_at_a_time(self, sim):
        h = Harness(sim)
        for _ in range(3):
            h.radio.send_datagram(datagram("MH0"))
        h.radio.send_datagram(datagram("MH1"))
        sim.run(until=0.01)  # less than one airtime
        assert h.radio.stats.attempts == 1

    def test_serves_both_destinations(self, sim):
        h = Harness(sim)
        h.radio.send_datagram(datagram("MH0"))
        h.radio.send_datagram(datagram("MH1"))
        sim.run(until=2.0)
        assert {d.dst for d in h.delivered} == {"MH0", "MH1"}


class TestRetriesAndDiscard:
    def test_failed_dest_retries_with_backoff(self, sim):
        # Good windows (0.3 s) comfortably fit one 80 ms frame, but the
        # first attempt at t=0.35 lands in a fade and must retry.
        h = Harness(sim, dests=("MH0",), good=0.3, bad=0.5)
        sim.schedule(0.35, h.radio.send_datagram, datagram("MH0"))
        sim.run(until=30.0)
        assert h.radio.stats.attempt_failures > 0
        assert len(h.delivered) == 1  # eventually crosses in a good window

    def test_rtmax_discard_and_sibling_drop(self, sim):
        h = Harness(sim, dests=("MH0",), good=0.05, bad=1e6)
        sim.schedule(0.1, h.radio.send_datagram, datagram("MH0", size=576))
        sim.run(until=60.0)
        assert h.radio.stats.frames_discarded >= 1
        assert h.radio.stats.siblings_dropped >= 1
        assert h.delivered == []

    def test_unknown_destination_rejected(self, sim):
        h = Harness(sim)
        with pytest.raises(KeyError):
            h.radio.send_datagram(datagram("MH9"))

    def test_needs_at_least_one_channel(self, sim):
        with pytest.raises(ValueError):
            DownlinkRadio(
                sim,
                WirelessLinkConfig(),
                {},
                RoundRobinScheduler(),
                rng=random.Random(1),
                deliver=lambda d: None,
            )


class TestFifoBlocking:
    def test_blocked_radio_idles_behind_faded_head(self, sim):
        channels = {
            "MH0": deterministic_channel(0.05, 1e6),  # fades out immediately
            "MH1": deterministic_channel(1e6, 0.01),  # always clean
        }
        delivered = []
        radio = DownlinkRadio(
            sim,
            WirelessLinkConfig(),
            channels,
            FifoScheduler(),
            rng=random.Random(2),
            deliver=delivered.append,
        )
        sim.schedule(0.1, radio.send_datagram, datagram("MH0"))
        sim.schedule(0.1, radio.send_datagram, datagram("MH1"))
        sim.run(until=2.0)
        # FIFO: MH1's clean packet is stuck behind MH0's doomed one.
        assert delivered == []
        assert radio.stats.idle_blocked_time > 0
        sim.run(until=60.0)
        # After MH0's frame exhausts rtmax, MH1 finally gets served.
        assert [d.dst for d in delivered] == ["MH1"]
