"""Explicit Bad State Notification (EBSN) — the paper's contribution.

Two halves, exactly as in §4.2.3 and the Appendix:

* **Base station side** (:class:`EbsnGenerator`): hangs off the
  wireless port's feedback hooks.  After *every* unsuccessful
  link-level attempt to transmit a TCP data packet to the mobile host,
  it sends an ICMP-like EBSN message to that packet's source over the
  wired network.  No per-connection state is kept — the trigger is the
  failed frame itself, and the destination is read off the frame's own
  datagram header.

* **Source side** (:func:`install_ebsn_handler`): on receipt of an
  EBSN, the source cancels its pending retransmission timer and arms a
  fresh one *at the current timeout value* (computed from the existing
  RTT/variance estimate, including any backoff in force).  Nothing
  else changes: no window action, no RTT sample, so the estimator is
  not polluted by bad-state delays.  The paper's pseudocode:

  .. code-block:: none

      tcp_recv() {
          if EBSN received { set_rtx_timer(); return; }
          /* other packet processing */
      }
"""

from __future__ import annotations

from typing import Optional

from repro.engine import Simulator, Timer
from repro.linklayer.port import FeedbackHooks
from repro.net.node import Node
from repro.net.packet import (
    ICMP_PACKET_BYTES,
    Fragment,
    IcmpMessage,
    IcmpType,
    PacketType,
    TcpSegment,
    datagram,
)
from repro.tcp.tahoe import TahoeSender


class EbsnGenerator(FeedbackHooks):
    """Base-station feedback hook that emits EBSN messages.

    Attach as the ``feedback`` of the base station's wireless port
    (the BS→MH direction).  Only failed *TCP data* frames trigger an
    EBSN — the notification is meant for the TCP source; failed
    control traffic has no one to notify.  Every such failure sends
    one, uncapped, as the paper's base station does.
    """

    def __init__(
        self,
        node: Node,
        sim: Optional[Simulator] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if heartbeat_interval is not None:
            if sim is None:
                raise ValueError("heartbeat needs the simulator for its timer")
            if heartbeat_interval <= 0:
                raise ValueError("heartbeat_interval must be positive")
        self._node = node
        #: Optional heartbeat: while the link is failing, keep sending
        #: EBSNs every ``heartbeat_interval`` seconds *between* ARQ
        #: attempts.  The per-attempt EBSN suffices when the source's
        #: RTO exceeds the ARQ retry cycle (the paper's bulk-transfer
        #: regime); interactive sources with millisecond RTTs have RTOs
        #: at the clock-granularity floor, below the retry cycle, and
        #: need the denser notification stream.
        self.heartbeat_interval = heartbeat_interval
        self._heartbeat_timer = (
            Timer(sim, self._heartbeat, name="ebsn-heartbeat")
            if heartbeat_interval is not None
            else None
        )
        self._last_source: Optional[str] = None
        self._last_seq: Optional[int] = None
        self.ebsn_sent = 0
        self.heartbeats_sent = 0

    def on_attempt_failed(self, fragment: Fragment, attempt: int) -> None:
        """Send one EBSN to the failed data packet's source."""
        datagram = fragment.datagram
        if datagram.packet_type is not PacketType.DATA:
            return
        payload = datagram.payload
        about_seq = payload.seq if isinstance(payload, TcpSegment) else None
        self._last_source = datagram.src
        self._last_seq = about_seq
        self._emit(datagram.src, about_seq)
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.restart(self.heartbeat_interval)

    def on_recovered(self) -> None:
        """Stop the heartbeat: frames are crossing again."""
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()

    def _heartbeat(self) -> None:
        if self._last_source is None:
            return
        self.heartbeats_sent += 1
        self._emit(self._last_source, self._last_seq)
        assert self._heartbeat_timer is not None
        self._heartbeat_timer.restart(self.heartbeat_interval)

    def _emit(self, dst: str, about_seq: Optional[int]) -> None:
        ebsn = datagram(
            self._node.name,
            dst,
            IcmpMessage(IcmpType.EBSN, about_seq=about_seq),
            ICMP_PACKET_BYTES,
        )
        self.ebsn_sent += 1
        self._node.send(ebsn)


def install_ebsn_handler(sender: TahoeSender) -> None:
    """Make a TCP source respond to EBSN by re-arming its rtx timer.

    This is the minimal source-side change the paper's Appendix shows;
    non-EBSN ICMP messages are left to any previously installed
    handler (so EBSN and quench handling can coexist for the
    interaction ablation).
    """
    previous = sender.icmp_handler

    def handler(snd: TahoeSender, message: IcmpMessage) -> None:
        if message.icmp_type is IcmpType.EBSN:
            snd.stats.ebsn_received += 1
            snd.rearm_rtx_timer()
            return
        if previous is not None:
            previous(snd, message)

    sender.icmp_handler = handler
