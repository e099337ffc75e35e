"""Configuration and counters for the link-layer ARQ (local recovery).

The paper's local recovery (§4.2.1, after Bhagwat et al. and the CDPD
spec) is aggressive retransmission with packet discard: if no link
acknowledgement follows a transmission, the frame is retransmitted
after a random backoff, up to ``rtmax`` total attempts (CDPD: 13)
before being discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.wireless import WirelessLinkConfig


@dataclass
class ArqConfig:
    """Parameters of the stop-and-wait link-layer ARQ.

    ``ack_timeout`` is the time the transmitter waits *after the frame
    has fully left the radio* for the link ACK.  It must cover one
    round of propagation, the ACK's airtime, and the chance that the
    reverse link is busy serializing a data frame; topology builders
    compute it from the link parameters (:meth:`for_link`).

    Three behaviours are fixed rather than configured:

    * when a fragment is discarded after rtmax attempts, its queued
      sibling fragments are dropped too (the datagram can no longer
      reassemble, so sending them only wastes airtime);
    * frames reach the network layer in link-sequence order, as
      RLP-style local recovery delivers them.  Without this, a retried
      frame overtaken by its successors produces TCP duplicate ACKs and
      a spurious fast retransmit at the source;
    * the receiver holds out-of-order frames for the transmitter's full
      retry horizon (:meth:`derived_flush`) before flushing past a gap.
    """

    ack_timeout: float = 0.25
    #: Maximum successive transmissions of one frame before discard
    #: (the paper sets the CDPD value, 13).
    rtmax: int = 13
    #: Random retransmission backoff, uniform in [min, max] seconds.
    backoff_min: float = 0.02
    backoff_max: float = 0.2
    #: Frames that may be unacknowledged at once.  1 = stop-and-wait;
    #: a small window (default 4) keeps the radio busy across the
    #: link-ACK turnaround, as the aggressive-retransmission protocol
    #: of [9] does.  Failing frames occupy window slots, so a deep fade
    #: still blocks the queue (the head-of-line behaviour CSDP [9]
    #: observed) rather than dumping everything into the fade.
    window: int = 4

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be positive, got {self.ack_timeout}")
        if self.rtmax < 1:
            raise ValueError(f"rtmax must be >= 1, got {self.rtmax}")
        if self.backoff_min < 0 or self.backoff_max < self.backoff_min:
            raise ValueError(
                f"need 0 <= backoff_min <= backoff_max, got "
                f"[{self.backoff_min}, {self.backoff_max}]"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @classmethod
    def for_link(cls, link: WirelessLinkConfig, ack_slack: float = 0.01) -> ArqConfig:
        """ARQ parameters scaled to ``link``'s timescales (DESIGN.md §5):
        the link-ACK timeout covers the turnaround, an MTU frame the
        reverse direction may be sending, and ``ack_slack``; the backoff
        spans 2.5-7.5 frame times, per [9]/[12], so the RTmax = 13
        budget rides out the WAN's fades (13 cycles ≈ 8 s)."""
        frame_time = link.airtime(link.mtu_bytes)[1]
        return cls(
            ack_timeout=link.turnaround + frame_time + ack_slack,
            backoff_min=2.5 * frame_time,
            backoff_max=7.5 * frame_time,
        )

    def derived_flush(self) -> float:
        """Resequencing flush timeout: the full retry horizon plus margin."""
        return self.rtmax * (self.ack_timeout + self.backoff_max) + 1.0


@dataclass
class ArqStats:
    """Counters kept by each port's ARQ transmitter."""

    frames_accepted: int = 0
    first_transmissions: int = 0
    link_retransmissions: int = 0
    link_acks_received: int = 0
    ack_timeouts: int = 0
    frames_discarded: int = 0
    siblings_dropped: int = 0
