"""Unit tests for packet types."""

from __future__ import annotations

import pytest

from repro.net.packet import (
    ACK_PACKET_BYTES,
    LINK_ACK_BYTES,
    Datagram,
    Fragment,
    FrameKind,
    IcmpMessage,
    IcmpType,
    LinkFrame,
    PacketType,
    TcpAck,
    TcpSegment,
    data_frame,
    datagram,
    link_ack_frame,
    skip_frame,
    tcp_ack,
    tcp_segment,
)


def make_segment(seq=0, payload=536):
    return TcpSegment(seq=seq, payload_bytes=payload)


def make_datagram(size=576, payload=None):
    return Datagram("FH", "MH", payload or make_segment(), size)


class TestTcpSegment:
    def test_valid_segment(self):
        seg = make_segment(seq=5)
        assert seg.seq == 5 and seg.payload_bytes == 536

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            TcpSegment(seq=-1, payload_bytes=100)

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            TcpSegment(seq=0, payload_bytes=0)


class TestTcpAck:
    def test_valid(self):
        assert TcpAck(ack_seq=3).ack_seq == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TcpAck(ack_seq=-1)


class TestDatagram:
    def test_packet_type_data(self):
        assert make_datagram().packet_type is PacketType.DATA

    def test_packet_type_ack(self):
        dg = Datagram("MH", "FH", TcpAck(1), ACK_PACKET_BYTES)
        assert dg.packet_type is PacketType.ACK

    def test_packet_type_icmp(self):
        dg = Datagram("BS", "FH", IcmpMessage(IcmpType.EBSN), 40)
        assert dg.packet_type is PacketType.ICMP

    def test_uids_are_unique(self):
        assert make_datagram().uid != make_datagram().uid

    def test_smaller_than_header_rejected(self):
        with pytest.raises(ValueError):
            Datagram("FH", "MH", make_segment(), 39)


class TestFragment:
    def test_valid_fragment(self):
        frag = Fragment(make_datagram(), frag_index=0, frag_count=5, size_bytes=128)
        assert not frag.is_last

    def test_last_fragment(self):
        frag = Fragment(make_datagram(), frag_index=4, frag_count=5, size_bytes=64)
        assert frag.is_last

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Fragment(make_datagram(), frag_index=5, frag_count=5, size_bytes=128)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Fragment(make_datagram(), frag_index=0, frag_count=1, size_bytes=0)


class TestLinkFrames:
    def test_data_frame_wraps_fragment(self):
        frag = Fragment(make_datagram(), 0, 1, 576)
        frame = data_frame(frag)
        assert frame.kind is FrameKind.DATA
        assert frame.size_bytes == 576
        assert frame.fragment is frag

    def test_link_ack_frame(self):
        frame = link_ack_frame(acked_frame_uid=17)
        assert frame.kind is FrameKind.LINK_ACK
        assert frame.size_bytes == LINK_ACK_BYTES
        assert frame.acked_frame_uid == 17

    def test_skip_frame(self):
        frame = skip_frame(link_seq=9)
        assert frame.kind is FrameKind.SKIP
        assert frame.link_seq == 9

    def test_skip_frame_requires_seq(self):
        with pytest.raises(ValueError):
            LinkFrame(kind=FrameKind.SKIP, size_bytes=8)

    def test_frame_uids_unique(self):
        assert link_ack_frame(1).uid != link_ack_frame(1).uid


class TestBuilders:
    """The field-by-field builders equal the checked constructors."""

    def test_tcp_segment(self):
        assert tcp_segment(3, 536) == TcpSegment(3, 536)

    def test_tcp_ack(self):
        assert tcp_ack(7, False) == TcpAck(7)
        assert tcp_ack(7, True) == TcpAck(7, ecn_echo=True)

    def test_datagram(self):
        built = datagram("FH", "MH", tcp_ack(1, False), 40)
        assert built == Datagram("FH", "MH", TcpAck(1), 40, uid=built.uid)
        assert not built.ecn_marked
        icmp = datagram("BS", "FH", IcmpMessage(IcmpType.EBSN), 40)
        assert icmp == Datagram("BS", "FH", IcmpMessage(IcmpType.EBSN), 40, uid=icmp.uid)

    def test_datagram_draws_from_the_shared_uid_counter(self):
        first = make_datagram().uid
        built = datagram("FH", "MH", make_segment(), 576).uid
        assert built == first + 1
        assert make_datagram().uid == built + 1


#: Each packet type's fields, in order: what its header carries.
WIRE_FIELDS = {
    TcpSegment: ("seq", "payload_bytes"),
    TcpAck: ("ack_seq", "ecn_echo"),
    IcmpMessage: ("icmp_type", "about_seq"),
    Datagram: ("src", "dst", "payload", "size_bytes", "uid", "ecn_marked"),
    Fragment: ("datagram", "frag_index", "frag_count", "size_bytes"),
    LinkFrame: ("kind", "size_bytes", "fragment", "acked_frame_uid", "uid", "link_seq"),
}


class TestWireFormat:
    """Packets carry their header fields and nothing else.

    The sink, the snoop agent, the split relay and the feedback
    generators read packets, so any field here is one they could act
    on; sender and ARQ bookkeeping (send times, retransmission flags,
    attempt counts) stays with the sender.  ``uid`` is the one label,
    and behaviour never reads it.
    """

    @pytest.mark.parametrize("packet_type", list(WIRE_FIELDS), ids=lambda t: t.__name__)
    def test_fields_are_exactly_the_wire_fields(self, packet_type):
        assert packet_type.__slots__ == WIRE_FIELDS[packet_type]
