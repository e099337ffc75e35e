"""Unit tests for routing, fragmentation, reassembly."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.engine import Simulator
from repro.net.ip import Fragmenter, Reassembler, RoutingTable
from repro.net.packet import Datagram, TcpSegment


def make_datagram(size=576):
    seg = TcpSegment(seq=0, payload_bytes=size - 40)
    return Datagram("FH", "MH", seg, size)


class TestRoutingTable:
    def test_route_lookup(self):
        table = RoutingTable("BS")
        sent = []
        table.add_route("MH", sent.append)
        table.forward(make_datagram())
        assert len(sent) == 1

    def test_unroutable_raises(self):
        seg = TcpSegment(seq=0, payload_bytes=536)
        with pytest.raises(KeyError):
            RoutingTable("BS").forward(Datagram("FH", "nowhere", seg, 576))


class TestFragmenter:
    def test_fragment_sizes(self):
        f = Fragmenter(128)
        frags = f.fragment(make_datagram(576))
        assert [x.size_bytes for x in frags] == [128, 128, 128, 128, 64]
        assert sum(x.size_bytes for x in frags) == 576

    def test_small_datagram_single_fragment(self):
        f = Fragmenter(128)
        frags = f.fragment(make_datagram(100))
        assert len(frags) == 1
        assert frags[0].is_last

    def test_indices_and_counts(self):
        f = Fragmenter(128)
        frags = f.fragment(make_datagram(300))
        assert [x.frag_index for x in frags] == [0, 1, 2]
        assert all(x.frag_count == 3 for x in frags)

    def test_stats(self):
        f = Fragmenter(128)
        f.fragment(make_datagram(576))
        f.fragment(make_datagram(100))
        assert f.datagrams_fragmented == 1
        assert f.fragments_produced == 6

    def test_invalid_mtu(self):
        with pytest.raises(ValueError):
            Fragmenter(0)

    @given(size=st.integers(min_value=41, max_value=4096), mtu=st.integers(min_value=1, max_value=512))
    def test_fragments_always_reassemble_to_size(self, size, mtu):
        f = Fragmenter(mtu)
        frags = f.fragment(make_datagram(size))
        assert sum(x.size_bytes for x in frags) == size
        assert all(x.size_bytes <= mtu for x in frags)
        assert len(frags) == -(-size // mtu)


class TestReassembler:
    def test_complete_in_order(self, sim):
        r = Reassembler(sim)
        dg = make_datagram(300)
        frags = Fragmenter(128).fragment(dg)
        assert r.add(frags[0]) is None
        assert r.add(frags[1]) is None
        assert r.add(frags[2]) is dg
        assert r.completed == 1

    def test_complete_out_of_order(self, sim):
        r = Reassembler(sim)
        dg = make_datagram(300)
        frags = Fragmenter(128).fragment(dg)
        assert r.add(frags[2]) is None
        assert r.add(frags[0]) is None
        assert r.add(frags[1]) is dg

    def test_single_fragment_completes_immediately(self, sim):
        r = Reassembler(sim)
        dg = make_datagram(100)
        (frag,) = Fragmenter(128).fragment(dg)
        assert r.add(frag) is dg

    def test_duplicate_fragment_ignored(self, sim):
        r = Reassembler(sim)
        frags = Fragmenter(128).fragment(make_datagram(300))
        r.add(frags[0])
        assert r.add(frags[0]) is None
        assert r.duplicate_fragments == 1

    def test_fragment_of_completed_datagram_ignored(self, sim):
        """Late ARQ re-delivery must not resurrect a reassembly buffer."""
        r = Reassembler(sim)
        dg = make_datagram(300)
        frags = Fragmenter(128).fragment(dg)
        for frag in frags:
            r.add(frag)
        assert r.add(frags[1]) is None
        assert r.pending == 0
        assert r.duplicate_fragments == 1

    def test_interleaved_datagrams(self, sim):
        r = Reassembler(sim)
        dg_a, dg_b = make_datagram(300), make_datagram(300)
        frags_a = Fragmenter(128).fragment(dg_a)
        frags_b = Fragmenter(128).fragment(dg_b)
        r.add(frags_a[0])
        r.add(frags_b[0])
        r.add(frags_a[1])
        r.add(frags_b[1])
        r.add(frags_b[2])
        assert r.completed == 1
        assert r.add(frags_a[2]) is dg_a

    def test_timeout_discards_partial(self, sim):
        r = Reassembler(sim, timeout=5.0)
        frags = Fragmenter(128).fragment(make_datagram(300))
        r.add(frags[0])
        sim.run(until=11.0)
        assert r.pending == 0
        assert r.failed == 1

    def test_fresh_partial_survives_sweep(self, sim):
        r = Reassembler(sim, timeout=5.0)
        frags_old = Fragmenter(128).fragment(make_datagram(300))
        frags_new = Fragmenter(128).fragment(make_datagram(300))
        r.add(frags_old[0])
        sim.schedule(4.9, r.add, frags_new[0])
        sim.run(until=6.0)
        assert r.pending >= 1  # the new one must still be waiting

    def test_invalid_timeout(self, sim):
        with pytest.raises(ValueError):
            Reassembler(sim, timeout=0)


class TestReassemblerBookkeeping:
    """The per-datagram bitmask bookkeeping, fragment by fragment."""

    def test_twelve_fragments_out_of_order_with_duplicate(self, sim):
        r = Reassembler(sim)
        dg = make_datagram(1536)
        frags = Fragmenter(128).fragment(dg)
        assert len(frags) == 12
        order = [11, 3, 0, 7, 5, 9, 1, 10, 2, 8, 4, 6]
        for step, index in enumerate(order[:-1]):
            assert r.add(frags[index]) is None
            if step == 5:
                assert r.add(frags[7]) is None  # duplicate mid-way
        assert r.duplicate_fragments == 1
        assert r.pending == 1
        assert r.add(frags[order[-1]]) is dg
        assert (r.completed, r.pending, r.duplicate_fragments) == (1, 0, 1)

    def test_duplicate_after_completion_is_not_delivered_again(self, sim):
        r = Reassembler(sim)
        dg = make_datagram(1536)
        frags = Fragmenter(128).fragment(dg)
        delivered = [r.add(frag) for frag in frags]
        assert delivered == [None] * 11 + [dg]
        assert r.add(frags[4]) is None
        assert r.add(frags[11]) is None
        assert (r.completed, r.pending, r.duplicate_fragments) == (1, 0, 2)

    def test_stale_partial_expires_at_sweep_time(self, sim):
        """Sweeps run every ``timeout`` from the first partial's arrival.

        A partial from t=3 survives the t=5 sweep (it is only 2 s old)
        and is dropped by the next one, at t=10.
        """
        r = Reassembler(sim, timeout=5.0)
        old = Fragmenter(128).fragment(make_datagram(300))
        late = Fragmenter(128).fragment(make_datagram(300))
        r.add(old[0])
        sim.schedule(3.0, r.add, late[0])
        seen = []
        for t in (4.999, 5.001, 9.999, 10.001):
            sim.schedule_at(t, lambda: seen.append((sim.now, r.failed, r.pending)))
        sim.run(until=20.0)
        assert seen == [(4.999, 0, 2), (5.001, 1, 1), (9.999, 1, 1), (10.001, 2, 0)]
        assert sim.pending_count() == 0  # no sweep after the last partial went

    def test_single_fragment_datagrams_arm_one_sweep(self, sim):
        r = Reassembler(sim, timeout=5.0)
        fragmenter = Fragmenter(128)
        for _ in range(20):
            (frag,) = fragmenter.fragment(make_datagram(100))
            assert r.add(frag) is frag.datagram
        assert sim.heap_pushes == 1
        assert r.completed == 20 and r.pending == 0
        sim.run()
        assert sim.now == 5.0 and sim.heap_pushes == 1
