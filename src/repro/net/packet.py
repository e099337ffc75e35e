"""Packet types for every layer of the simulated stack.

The layering mirrors the paper's setup:

* The TCP source emits :class:`TcpSegment` / the sink emits
  :class:`TcpAck`; either is carried as the payload of a
  :class:`Datagram` (a network-layer packet).  A datagram's
  ``size_bytes`` is the *wired packet size* the paper sweeps
  (128–1536 B) and includes the 40-byte TCP/IP header.
* The base station's ICMP-like control messages —
  :class:`IcmpMessage` with type ``EBSN`` or ``SOURCE_QUENCH`` — are
  also datagram payloads.
* On the wireless hop a datagram larger than the MTU is split into
  :class:`Fragment` pieces; each fragment (or small whole datagram)
  travels inside a :class:`LinkFrame`, the unit the wireless link
  transmits and the unit the link-layer ARQ acknowledges.
"""

from __future__ import annotations

import enum
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Union

#: Node addresses are plain strings ("FH", "BS", "MH").
Address = str

#: TCP/IP header bytes on every data segment and ACK (paper §3.3).
TCP_IP_HEADER_BYTES = 40

#: Wired packet sizes the WAN study sweeps (Figs 7–9), header included;
#: the §4.1 packet-size advisor chooses among the same sizes.
WAN_PACKET_SIZES = [128, 256, 384, 512, 640, 768, 1024, 1280, 1536]

#: Bytes of a pure TCP ACK on the wire (header only, no payload).
ACK_PACKET_BYTES = 40

#: Bytes of an ICMP control message (EBSN / source quench) on the wire.
ICMP_PACKET_BYTES = 40

#: Bytes of a link-layer acknowledgement frame (before air overhead).
LINK_ACK_BYTES = 8

_datagram_ids = itertools.count(1)
_frame_ids = itertools.count(1)


@contextmanager
def pinned_uids():
    """Number datagrams and frames from 1 inside the block.

    The uid counters are process-wide, so a run's uids otherwise depend
    on how many packets the process made before it.  Uids are labels
    (behaviour never reads them), so pinning them makes a logged run
    depend only on its config and the code.  The counters are restored
    on exit.
    """
    global _datagram_ids, _frame_ids
    saved = _datagram_ids, _frame_ids
    _datagram_ids = itertools.count(1)
    _frame_ids = itertools.count(1)
    try:
        yield
    finally:
        _datagram_ids, _frame_ids = saved


class PacketType(enum.Enum):
    """Network-layer payload discriminator."""

    DATA = "data"
    ACK = "ack"
    ICMP = "icmp"


class IcmpType(enum.Enum):
    """ICMP message types used by the base station's feedback schemes."""

    #: Explicit Bad State Notification (the paper's contribution).
    EBSN = "ebsn"
    #: Classic RFC 792 source quench (the §4.2.2 negative result).
    SOURCE_QUENCH = "source_quench"


@dataclass(slots=True)
class TcpSegment:
    """A TCP data segment, identified by segment number.

    Sequence space is segment-numbered (as in the ns TCP the paper
    used); ``payload_bytes`` excludes the 40-byte header.  The sender's
    bookkeeping (send time, retransmission, Karn eligibility) stays in
    the sender, so the sink and the base station see only the header.
    """

    seq: int
    payload_bytes: int

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError(f"segment number must be >= 0, got {self.seq}")
        if self.payload_bytes <= 0:
            raise ValueError(f"payload must be positive, got {self.payload_bytes}")


@dataclass(slots=True)
class TcpAck:
    """A cumulative TCP acknowledgement.

    ``ack_seq`` is the next segment number the receiver expects; i.e.
    all segments < ``ack_seq`` were received in order.  ``ecn_echo``
    carries a congestion-experienced mark back to the source (Floyd
    '94 ECN, used by the wired-congestion extension study).
    """

    ack_seq: int
    ecn_echo: bool = False

    def __post_init__(self) -> None:
        if self.ack_seq < 0:
            raise ValueError(f"ack_seq must be >= 0, got {self.ack_seq}")


@dataclass(slots=True)
class IcmpMessage:
    """An ICMP control message from the base station to the source.

    ``about_seq`` identifies the segment whose link-level transmission
    failed (EBSN) or that was queued when congestion was signalled
    (source quench); it is informational — the paper's EBSN response
    does not depend on it.
    """

    icmp_type: IcmpType
    about_seq: Optional[int] = None


Payload = Union[TcpSegment, TcpAck, IcmpMessage]


@dataclass(slots=True)
class Datagram:
    """A network-layer packet.

    ``size_bytes`` is the full on-the-(wired)-wire size including the
    40-byte TCP/IP header; this is the "packet size" of the paper's
    sweeps.
    """

    src: Address
    dst: Address
    payload: Payload
    size_bytes: int
    uid: int = field(default_factory=lambda: next(_datagram_ids))
    #: Congestion-experienced mark, set by an ECN gateway when its
    #: queue is building (Floyd '94); echoed by the sink.
    ecn_marked: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes < TCP_IP_HEADER_BYTES:
            raise ValueError(
                f"datagram of {self.size_bytes} B is smaller than the "
                f"{TCP_IP_HEADER_BYTES} B header"
            )

    @property
    def packet_type(self) -> PacketType:
        if isinstance(self.payload, TcpSegment):
            return PacketType.DATA
        if isinstance(self.payload, TcpAck):
            return PacketType.ACK
        return PacketType.ICMP

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Datagram #{self.uid} {self.src}->{self.dst} "
            f"{self.packet_type.value} {self.size_bytes}B {self.payload!r}>"
        )


def tcp_segment(seq: int, payload_bytes: int) -> TcpSegment:
    """Build a data segment field by field, for the sender's hot path.

    Skips ``TcpSegment.__post_init__``: the sender numbers segments
    from 0 and ``TcpConfig`` leaves every segment a positive payload.
    Whether a send is a retransmission, and when it left, stays in the
    sender: a segment carries only what its header carries.
    """
    segment = TcpSegment.__new__(TcpSegment)
    segment.seq = seq
    segment.payload_bytes = payload_bytes
    return segment


def tcp_ack(ack_seq: int, ecn_echo: bool) -> TcpAck:
    """Build a cumulative ACK field by field, for the sink's hot path.

    Skips ``TcpAck.__post_init__``: the sink's next expected segment
    number is never negative.
    """
    ack = TcpAck.__new__(TcpAck)
    ack.ack_seq = ack_seq
    ack.ecn_echo = ecn_echo
    return ack


def datagram(src: Address, dst: Address, payload: Payload, size_bytes: int) -> Datagram:
    """Build a datagram field by field, for the per-packet hot paths.

    Skips ``Datagram.__post_init__``, so callers guarantee
    ``size_bytes >= TCP_IP_HEADER_BYTES``: TCP data and ACKs carry the
    fixed ``TCP_IP_HEADER_BYTES`` header, and ICMP messages are
    ``ICMP_PACKET_BYTES``.  Draws the next uid, as
    ``Datagram(...)`` does.  Like every packet builder here it sets
    only fields a real header carries (plus the uid label).
    """
    packet = Datagram.__new__(Datagram)
    packet.src = src
    packet.dst = dst
    packet.payload = payload
    packet.size_bytes = size_bytes
    packet.uid = next(_datagram_ids)
    packet.ecn_marked = False
    return packet


@dataclass(slots=True)
class Fragment:
    """One MTU-sized piece of a datagram on the wireless hop.

    ``frag_index`` runs from 0 to ``frag_count - 1``; reassembly is
    all-or-nothing (losing any fragment loses the datagram).
    """

    datagram: Datagram
    frag_index: int
    frag_count: int
    size_bytes: int

    def __post_init__(self) -> None:
        if not 0 <= self.frag_index < self.frag_count:
            raise ValueError(
                f"fragment index {self.frag_index} out of range "
                f"(count={self.frag_count})"
            )
        if self.size_bytes <= 0:
            raise ValueError(f"fragment size must be positive, got {self.size_bytes}")

    @property
    def is_last(self) -> bool:
        return self.frag_index == self.frag_count - 1


class FrameKind(enum.Enum):
    """What a link frame carries."""

    DATA = "data"  # a Fragment (or an unfragmented whole Datagram)
    LINK_ACK = "link_ack"  # a link-layer acknowledgement
    #: Sequence-sync control: "the frame with this link_seq was given
    #: up on" — lets the in-order receiver skip the gap immediately
    #: instead of stalling until its flush timeout.
    SKIP = "skip"


@dataclass(slots=True)
class LinkFrame:
    """The unit the wireless link transmits and the ARQ acknowledges.

    ``size_bytes`` is the frame size *before* the physical-layer
    overhead multiplier; the wireless link applies the 1.5× framing/
    FEC expansion when computing airtime and error exposure.
    """

    kind: FrameKind
    size_bytes: int
    fragment: Optional[Fragment] = None
    #: frame uid this LINK_ACK acknowledges.
    acked_frame_uid: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_frame_ids))
    #: Per-direction link sequence number, assigned by the ARQ
    #: transmitter; the receiver uses it to deliver in order (as RLP-
    #: style local recovery does).  None on PLAIN-mode frames.
    link_seq: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is FrameKind.DATA and self.fragment is None:
            raise ValueError("DATA frame requires a fragment")
        if self.kind is FrameKind.LINK_ACK and self.acked_frame_uid is None:
            raise ValueError("LINK_ACK frame requires acked_frame_uid")
        if self.kind is FrameKind.SKIP and self.link_seq is None:
            raise ValueError("SKIP frame requires link_seq")
        if self.size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {self.size_bytes}")


# The two per-frame factories below run once per transmission and once
# per link ACK; building the frame field-by-field skips the dataclass
# ``__init__``/``__post_init__`` pair, whose checks hold by construction
# here (fragment present, fixed positive sizes).
_DATA = FrameKind.DATA
_LINK_ACK = FrameKind.LINK_ACK


def data_frame(fragment: Fragment) -> LinkFrame:
    """Wrap a fragment in a transmittable link frame."""
    frame = LinkFrame.__new__(LinkFrame)
    frame.kind = _DATA
    frame.size_bytes = fragment.size_bytes
    frame.fragment = fragment
    frame.acked_frame_uid = None
    frame.uid = next(_frame_ids)
    frame.link_seq = None
    return frame


def link_ack_frame(acked_frame_uid: int) -> LinkFrame:
    """Build the small link-layer ACK for a received data frame."""
    frame = LinkFrame.__new__(LinkFrame)
    frame.kind = _LINK_ACK
    frame.size_bytes = LINK_ACK_BYTES
    frame.fragment = None
    frame.acked_frame_uid = acked_frame_uid
    frame.uid = next(_frame_ids)
    frame.link_seq = None
    return frame


def skip_frame(link_seq: int) -> LinkFrame:
    """Build the sequence-sync marker for a discarded frame's slot."""
    return LinkFrame(kind=FrameKind.SKIP, size_bytes=LINK_ACK_BYTES, link_seq=link_seq)
