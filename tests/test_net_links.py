"""Unit tests for wired and wireless links."""

from __future__ import annotations

import random

import pytest

from repro.channel import deterministic_channel
from repro.engine import Simulator
from repro.net.link import LinkStats, WiredLink
from repro.net.packet import (
    Datagram,
    Fragment,
    FrameKind,
    TcpAck,
    TcpSegment,
    data_frame,
    link_ack_frame,
)
from repro.net.queues import DropTailQueue
from repro.net.wireless import WirelessLink, WirelessLinkConfig


def make_datagram(size=576):
    seg = TcpSegment(seq=0, payload_bytes=size - 40)
    return Datagram("FH", "MH", seg, size)


def make_frame(size=128):
    dg = make_datagram(576)
    frag = Fragment(dg, 0, 1, size)
    return data_frame(frag)


class TestWiredLink:
    def test_delivery_time(self, sim):
        got = []
        link = WiredLink(sim, bandwidth_bps=56_000, prop_delay=0.01)
        link.connect(lambda d: got.append((sim.now, d)))
        link.send(make_datagram(576))
        sim.run()
        expected = 576 * 8 / 56_000 + 0.01
        assert got[0][0] == pytest.approx(expected)

    def test_serialization_queues_behind_transmission(self, sim):
        got = []
        link = WiredLink(sim, bandwidth_bps=8_000, prop_delay=0.0)
        link.connect(lambda d: got.append(sim.now))
        link.send(make_datagram(100))  # 0.1 s each
        link.send(make_datagram(100))
        sim.run()
        assert got == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_delivery_preserves_order(self, sim):
        got = []
        link = WiredLink(sim, bandwidth_bps=56_000, prop_delay=0.005)
        link.connect(lambda d: got.append(d.uid))
        datagrams = [make_datagram() for _ in range(5)]
        for dg in datagrams:
            link.send(dg)
        sim.run()
        assert got == [d.uid for d in datagrams]

    def test_send_without_receiver_raises(self, sim):
        link = WiredLink(sim, 56_000, 0.01)
        with pytest.raises(RuntimeError):
            link.send(make_datagram())

    def test_capacity_drop(self, sim):
        got = []
        link = WiredLink(sim, 56_000, 0.0, queue_capacity=1)
        link.connect(lambda d: got.append(d))
        # First goes straight to the transmitter, next two queue (cap 1).
        assert link.send(make_datagram())
        assert link.send(make_datagram())
        assert not link.send(make_datagram())
        sim.run()
        assert len(got) == 2

    def test_stats(self, sim):
        link = WiredLink(sim, 56_000, 0.01)
        link.connect(lambda d: None)
        link.send(make_datagram(576))
        sim.run()
        assert link.stats.transmitted == 1
        assert link.stats.bytes_transmitted == 576
        assert link.stats.busy_time == pytest.approx(576 * 8 / 56_000)

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            WiredLink(sim, 0, 0.01)
        with pytest.raises(ValueError):
            WiredLink(sim, 56_000, -0.01)


class TwoEventWiredLink:
    """Reference: the wired link as one event per transmission end.

    Each datagram's serialization ends in a ``_tx_done`` event that
    schedules its arrival and starts the next waiting datagram.
    ``WiredLink`` must deliver, drop and mark exactly as this does.
    """

    def __init__(self, sim, bandwidth_bps, prop_delay, queue_capacity=None,
                 ecn_threshold=None):
        self._sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.queue = DropTailQueue(queue_capacity)
        self.ecn_threshold = ecn_threshold
        self.ecn_marks = 0
        self.stats = LinkStats()
        self._receiver = None
        self._busy = False

    def connect(self, receiver):
        self._receiver = receiver

    def send(self, datagram):
        self.stats.offered += 1
        if self.ecn_threshold is not None and len(self.queue) >= self.ecn_threshold:
            datagram.ecn_marked = True
            self.ecn_marks += 1
        if not self.queue.offer(datagram, datagram.size_bytes):
            return False
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self):
        datagram = self.queue.poll()
        if datagram is None:
            self._busy = False
            return
        self._busy = True
        duration = datagram.size_bytes * 8 / self.bandwidth_bps
        self._sim.schedule(duration, self._tx_done, datagram, duration)

    def _tx_done(self, datagram, duration):
        self.stats.transmitted += 1
        self.stats.bytes_transmitted += datagram.size_bytes
        self.stats.busy_time += duration
        self.stats.delivered += 1
        self._sim.schedule(self.prop_delay, self._receiver, datagram)
        self._start_next()


def drive(make_link, schedule):
    """Run one link over ``schedule``: (arrivals, dropped, marked, link).

    ``schedule`` is a list of (send time, size, uid); every side gets
    fresh datagrams with the same uids.
    """
    sim = Simulator()
    link = make_link(sim)
    arrivals, dropped, datagrams = [], set(), []
    link.connect(lambda d: arrivals.append((sim.now, d.uid)))

    def send(dg):
        if not link.send(dg):
            dropped.add(dg.uid)

    for at, size, uid in schedule:
        dg = Datagram("FH", "MH", TcpAck(uid), size, uid=uid)
        datagrams.append(dg)
        sim.schedule_at(at, send, dg)
    sim.run()
    marked = {dg.uid for dg in datagrams if dg.ecn_marked}
    return arrivals, dropped, marked, link


def random_schedule(rng, count=120):
    """Sends of random sizes at random gaps (a third back to back)."""
    at, schedule = 0.0, []
    for uid in range(1, count + 1):
        if rng.random() >= 1 / 3:
            at += rng.uniform(0.0, 0.25)
        schedule.append((at, rng.randint(40, 1536), uid))
    return schedule


class TestWiredLinkMatchesTwoEventReference:
    """The computed serialization behaves as the two-event link did."""

    @pytest.mark.parametrize("capacity", [None, 1, 3])
    @pytest.mark.parametrize("ecn_threshold", [None, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedules(self, seed, capacity, ecn_threshold):
        schedule = random_schedule(random.Random(seed))
        kwargs = dict(bandwidth_bps=56_000, prop_delay=0.01,
                      queue_capacity=capacity, ecn_threshold=ecn_threshold)
        want = drive(lambda sim: TwoEventWiredLink(sim, **kwargs), schedule)
        got = drive(lambda sim: WiredLink(sim, **kwargs), schedule)
        assert got[0] == want[0]  # arrival times (exact) and order
        assert got[1] == want[1]  # dropped uids
        assert got[2] == want[2]  # marked uids
        assert got[3].stats == want[3].stats
        # The queue is drained lazily, at the next send: compare what
        # left it and what is still in it together.
        got_q, want_q = got[3].queue, want[3].queue
        assert got_q.stats.dequeued + len(got_q) == want_q.stats.dequeued + len(want_q)
        got_q.stats.dequeued = want_q.stats.dequeued
        assert got_q.stats == want_q.stats
        assert got[3].ecn_marks == want[3].ecn_marks
        if capacity is not None:
            assert want[1], "schedule too sparse to exercise drop-tail"
        if ecn_threshold is not None and (capacity is None or capacity > ecn_threshold):
            assert want[2], "schedule too sparse to exercise ECN marking"

    def test_one_heap_entry_per_datagram(self, sim):
        link = WiredLink(sim, 56_000, 0.01)
        link.connect(lambda d: None)
        for _ in range(25):
            link.send(make_datagram(576))
        assert sim.heap_pushes == 25
        sim.run()
        assert sim.heap_pushes == 25
        assert sim.events_executed == 25

    @pytest.mark.parametrize("c_first", [False, True], ids=["c-last", "c-first"])
    def test_datagram_starting_now_has_left_the_queue(self, sim, c_first):
        """Tie rule: a send at a datagram's start time does not count it.

        A and B go out at t=0; B waits until A's serialization ends at
        exactly 0.1 s.  C, sent at 0.1 s, finds B on the line, not in
        the queue: it is neither dropped (capacity 1) nor marked (ECN
        threshold 1).  That holds whichever of C's send and the start
        of A's transmission was scheduled first; the two-event link
        dropped and marked C when C's send came first.
        """
        link = WiredLink(sim, 8_000, 0.0, queue_capacity=1, ecn_threshold=1)
        link.connect(lambda d: None)
        b, c = make_datagram(100), make_datagram(100)
        seen = []

        def send_ab():
            seen.append(link.send(make_datagram(100)) and link.send(b))

        def send_c():
            seen.append(link.send(c))
            seen.append(len(link.queue))

        if c_first:
            sim.schedule_at(0.1, send_c)
            sim.schedule_at(0.0, send_ab)
        else:
            send_ab()
            sim.schedule_at(0.1, send_c)
        sim.run()
        assert seen == [True, True, 1]
        assert not b.ecn_marked and not c.ecn_marked
        assert link.ecn_marks == 0 and link.queue.stats.dropped == 0


class TestWirelessLinkConfig:
    def test_effective_bandwidth(self):
        cfg = WirelessLinkConfig(raw_bandwidth_bps=19_200, overhead_factor=1.5)
        assert cfg.effective_bandwidth_bps == pytest.approx(12_800)

    def test_validation(self):
        with pytest.raises(ValueError):
            WirelessLinkConfig(raw_bandwidth_bps=-1)
        with pytest.raises(ValueError):
            WirelessLinkConfig(overhead_factor=0.5)
        with pytest.raises(ValueError):
            WirelessLinkConfig(mtu_bytes=0)


class TestWirelessLink:
    def make_link(self, sim, good=100.0, bad=1.0):
        channel = deterministic_channel(good, bad)
        link = WirelessLink(sim, WirelessLinkConfig(), channel)
        return link, channel

    def test_airtime_includes_overhead(self, sim):
        link, _ = self.make_link(sim)
        # 128 B fragment -> 192 B on air at 19.2 kbps = 80 ms.
        assert link.tx_time(128) == pytest.approx(0.08)
        assert link._airtime(128)[0] == 192

    def test_good_state_delivery(self, sim):
        link, _ = self.make_link(sim)
        got = []
        link.connect(lambda f: got.append(sim.now))
        link.send(make_frame(128))
        sim.run()
        assert got == [pytest.approx(0.08 + 0.002)]

    def test_bad_state_frame_is_lost(self, sim):
        link, channel = self.make_link(sim, good=0.5, bad=100.0)
        got = []
        link.connect(got.append)
        sim.schedule(1.0, link.send, make_frame(128))  # deep in bad state
        sim.run()
        assert got == []
        assert link.stats.corrupted == 1

    def test_tx_complete_fires_even_on_corruption(self, sim):
        link, _ = self.make_link(sim, good=0.5, bad=100.0)
        link.connect(lambda f: None)
        done = []
        sim.schedule(1.0, link.send, make_frame(128), lambda f: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.08)]

    def test_link_acks_preempt_data_queue(self, sim):
        link, _ = self.make_link(sim)
        got = []
        link.connect(lambda f: got.append(f.kind))
        link.send(make_frame(128))
        link.send(make_frame(128))
        link.send(link_ack_frame(1))  # queued last, must jump the data
        sim.run()
        assert got[1] == FrameKind.LINK_ACK

    def test_serialization_order_within_class(self, sim):
        link, _ = self.make_link(sim)
        got = []
        link.connect(lambda f: got.append(f.uid))
        frames = [make_frame(128) for _ in range(4)]
        for f in frames:
            link.send(f)
        sim.run()
        assert got == [f.uid for f in frames]

    def test_send_without_receiver_raises(self, sim):
        link, _ = self.make_link(sim)
        with pytest.raises(RuntimeError):
            link.send(make_frame())

    def test_stats_loss_rate(self, sim):
        link, _ = self.make_link(sim, good=0.09, bad=1000.0)
        link.connect(lambda f: None)
        for _ in range(2):
            link.send(make_frame(128))
        sim.run()
        # First frame [0, 0.08] fits in the 0.09 s good period; the
        # second [0.08, 0.16] straddles into the deep fade and dies.
        assert link.stats.loss_rate() == 0.5
        assert link.stats.corrupted == 1
