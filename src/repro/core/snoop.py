"""A snoop-style transport-aware agent at the base station.

This is the Balakrishnan et al. baseline the paper compares against in
§2: the base station caches TCP data packets heading to the mobile
host and performs *local* retransmissions when duplicate ACKs or a
local timer reveal a wireless loss, suppressing the duplicate ACKs so
the source never notices.  Unlike EBSN it keeps per-connection state
at the base station, and — the paper's criticism — the source can
still time out while snoop is retransmitting, and bursty losses (no
ACK flow at all) defeat dupack-driven recovery.

The implementation is deliberately faithful to that failure mode: it
recovers quickly from isolated losses but has only its local timer
during a deep fade.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.engine import Simulator, Timer
from repro.net.packet import Datagram, TcpAck, TcpSegment

#: Local retransmissions of one cached segment before snoop leaves its
#: recovery to the source.
MAX_LOCAL_RETX = 10


class SnoopAgent:
    """Per-connection snoop cache and local-retransmission engine.

    Wire it between the base station's wired input and its wireless
    port:

    * TCP data datagrams from the fixed host pass through
      :meth:`on_wired_data` (cached, then forwarded via
      ``send_wireless``);
    * TCP ACK datagrams from the mobile host pass through
      :meth:`on_wireless_ack` (snooped; a duplicate ACK for a cached
      segment triggers its local retransmission and is suppressed;
      new ACKs forwarded via ``send_wired``).
    """

    def __init__(
        self,
        sim: Simulator,
        send_wireless: Callable[[Datagram], None],
        send_wired: Callable[[Datagram], None],
        local_timeout: float = 0.6,
    ) -> None:
        if local_timeout <= 0:
            raise ValueError("local_timeout must be positive")
        self._sim = sim
        self._send_wireless = send_wireless
        self._send_wired = send_wired
        self.local_timeout = local_timeout

        self._cache: Dict[int, Datagram] = {}
        self._retx_count: Dict[int, int] = {}
        self._last_ack: Optional[int] = None
        self._timer = Timer(sim, self._on_local_timeout, name="snoop")

        self.local_retransmissions = 0
        self.dupacks_suppressed = 0

    # ------------------------------------------------------------------

    def on_wired_data(self, datagram: Datagram) -> None:
        """Cache and forward a data packet heading for the mobile host."""
        payload = datagram.payload
        if isinstance(payload, TcpSegment):
            self._cache[payload.seq] = datagram
            self._retx_count.setdefault(payload.seq, 0)
            if not self._timer.pending:
                self._timer.start(self.local_timeout)
        self._send_wireless(datagram)

    def on_wireless_ack(self, datagram: Datagram) -> None:
        """Snoop an ACK from the mobile host; maybe suppress it."""
        payload = datagram.payload
        if not isinstance(payload, TcpAck):
            self._send_wired(datagram)
            return
        ack = payload.ack_seq
        if self._last_ack is None or ack > self._last_ack:
            self._last_ack = ack
            self._clean_below(ack)
            self._rearm_timer()
            self._send_wired(datagram)
            return
        # Duplicate ACK: the segment `ack` is missing at the receiver.
        if ack in self._cache:
            self._local_retransmit(ack)
            self.dupacks_suppressed += 1
            return  # suppressed — the source never sees it
        self._send_wired(datagram)

    # ------------------------------------------------------------------

    @property
    def cached_segments(self) -> int:
        return len(self._cache)

    def _clean_below(self, ack: int) -> None:
        for seq in [s for s in self._cache if s < ack]:
            del self._cache[seq]
            self._retx_count.pop(seq, None)

    def _rearm_timer(self) -> None:
        if self._cache:
            self._timer.restart(self.local_timeout)
        else:
            self._timer.cancel()

    def _local_retransmit(self, seq: int) -> None:
        datagram = self._cache.get(seq)
        if datagram is None:
            return
        if self._retx_count.get(seq, 0) >= MAX_LOCAL_RETX:
            return
        self._retx_count[seq] = self._retx_count.get(seq, 0) + 1
        self.local_retransmissions += 1
        self._send_wireless(datagram)
        self._rearm_timer()

    def _on_local_timeout(self) -> None:
        if not self._cache:
            return
        self._local_retransmit(min(self._cache))
        self._timer.restart(self.local_timeout)
