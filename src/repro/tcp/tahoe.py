"""TCP Tahoe bulk-transfer sender.

Segment-numbered (as in the ns TCP the paper used): the unit of
sequencing is one segment of ``packet_size - TCP_IP_HEADER_BYTES``
payload.
The connection transfers ``transfer_bytes`` and stops.

Algorithms implemented (Jacobson '88 / Stevens):

* slow start: cwnd += 1 per new ACK while cwnd < ssthresh;
* congestion avoidance: cwnd += 1/cwnd per new ACK;
* loss response (both timeout and fast retransmit — Tahoe has no fast
  recovery): ssthresh ← max(2, flight/2), cwnd ← 1, go back to the
  first unacknowledged segment;
* timeout additionally doubles the RTO (exponential backoff); the
  backoff is cleared only when an ACK for a never-retransmitted
  segment arrives (Karn/Partridge);
* RTT is sampled from one timed segment at a time, never a
  retransmitted one (Karn's rule), on a 100 ms-granularity clock.

The ``icmp_handler`` hook is the attachment point for the paper's
schemes: EBSN re-arms the retransmission timer at the current timeout
(see :mod:`repro.core.ebsn`); source quench shrinks the window (see
:mod:`repro.core.quench`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Set

from repro.engine import Simulator, Timer
from repro.net.node import Node
from repro.net.packet import (
    Address,
    Datagram,
    IcmpMessage,
    TcpAck,
    TcpSegment,
    TCP_IP_HEADER_BYTES,
    datagram,
    tcp_segment,
)
from repro.tcp.rto import RttEstimator


#: Cap on the RTO's exponential backoff: at most 2**6 = 64 times the
#: estimate (and never above :data:`MAX_RTO`).
MAX_BACKOFF_DOUBLINGS = 6
#: Upper bound on any retransmission timeout (s).
MAX_RTO = 64.0
#: Duplicate ACKs that trigger fast retransmit.
DUPACK_THRESHOLD = 3


class SendTrace(Protocol):
    """Consumer of per-transmission trace records (Figs 3–5)."""

    def record_send(self, time: float, seq: int, is_retransmission: bool) -> None:
        """Record one source transmission."""
        ...  # pragma: no cover - protocol


@dataclass
class TcpConfig:
    """Connection parameters (paper §3.3 defaults for the WAN study)."""

    #: Wired packet size including the 40 B header — the swept variable.
    packet_size: int = 576
    #: Advertised/receiver window in bytes (4 KB WAN, 64 KB LAN).
    window_bytes: int = 4096
    #: Bulk-transfer size in user-data bytes (100 KB WAN, 4 MB LAN).
    transfer_bytes: int = 100 * 1024
    #: TCP clock granularity in seconds (paper: 100 ms).
    clock_granularity: float = 0.1
    initial_rto: float = 3.0
    #: RTO variance weight (Jacobson's k = 4); the §6 robust-timer
    #: ablation raises it.
    rto_k: float = 4.0
    #: Asymmetric rttvar decay gain (None = standard 0.25); smaller
    #: values hold delay spikes longer ("peak-hold" robust timer).
    rto_var_decay_gain: Optional[float] = None

    def __post_init__(self) -> None:
        if self.packet_size <= TCP_IP_HEADER_BYTES:
            raise ValueError(
                f"packet size {self.packet_size} leaves no payload after "
                f"{TCP_IP_HEADER_BYTES} B header"
            )
        if self.window_bytes < self.packet_size:
            raise ValueError("window must hold at least one packet")
        if self.transfer_bytes <= 0:
            raise ValueError("transfer_bytes must be positive")

    @property
    def segment_payload(self) -> int:
        """User-data bytes per full segment."""
        return self.packet_size - TCP_IP_HEADER_BYTES

    @property
    def window_segments(self) -> int:
        """Advertised window expressed in whole packets."""
        return max(1, self.window_bytes // self.packet_size)

    @property
    def total_segments(self) -> int:
        """Segments needed for the whole transfer."""
        return -(-self.transfer_bytes // self.segment_payload)


@dataclass
class SenderStats:
    """Counters the metrics layer and the figures read out."""

    segments_sent: int = 0
    retransmissions: int = 0
    bytes_sent_wire: int = 0
    retransmitted_bytes_wire: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    ebsn_received: int = 0
    ebsn_timer_rearms: int = 0
    quench_received: int = 0
    ecn_responses: int = 0
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    cwnd_trace: list = field(default_factory=list)


class TahoeSender:
    """A TCP Tahoe source performing one bulk transfer.

    Attach to a node with ``node.attach_agent(sender)``; call
    :meth:`start` to begin.  ``on_complete`` (if given) fires once when
    the final ACK arrives.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        dst: Address,
        config: Optional[TcpConfig] = None,
        trace: Optional[SendTrace] = None,
        on_complete: Optional[Callable[[], None]] = None,
        record_cwnd: bool = False,
    ) -> None:
        self._sim = sim
        self._node = node
        self.dst = dst
        self.config = config or TcpConfig()
        self.trace = trace
        self.on_complete = on_complete
        self.record_cwnd = record_cwnd

        self.estimator = RttEstimator(
            granularity=self.config.clock_granularity,
            initial_rto=self.config.initial_rto,
            max_rto=MAX_RTO,
            k=self.config.rto_k,
            var_decay_gain=self.config.rto_var_decay_gain,
        )
        self.rtx_timer = Timer(sim, self._on_timeout, name=f"rtx@{node.name}")
        self.stats = SenderStats()

        # Sequence state (segment numbers).  ``transfer_bytes`` /
        # ``total_segments`` are instance state so a message-fed variant
        # (interactive sessions, the split-connection relay) can grow
        # them while running.
        # ``_high_water`` is one past the highest segment ever sent:
        # every resend (go-back-N, Reno's hole, NewReno's partial-ACK
        # hole) is below it, so ``seq < _high_water`` marks a
        # retransmission.
        self.snd_una = 0
        self.snd_nxt = 0
        self._high_water = 0
        self.transfer_bytes = self.config.transfer_bytes
        self.total_segments = self.config.total_segments
        # Config-derived constants read per ACK and per segment.
        self._window_segments = self.config.window_segments
        self._segment_payload = self.config.segment_payload

        # Congestion state (in segments).
        self.cwnd: float = 1.0
        self.ssthresh: float = float(max(2, self._window_segments))
        self.backoff_exp = 0
        self.dupacks = 0

        # ECN (Floyd '94): react to at most one congestion echo per
        # window of data, like a single fast-retransmit halving.
        self.ecn_enabled = False
        self._ecn_recover = 0

        # RTT timing (one timed segment at a time, Karn's rule).
        self._timed_seq: Optional[int] = None
        self._timed_at: float = 0.0
        self._ever_retransmitted: Set[int] = set()

        #: Pluggable ICMP response — set by the EBSN/quench policies.
        self.icmp_handler: Optional[Callable[["TahoeSender", IcmpMessage], None]] = None

        self.completed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the transfer at the current simulation time."""
        if self.stats.started_at is not None:
            raise RuntimeError("sender already started")
        self.stats.started_at = self._sim._now
        self._send_pending()

    @property
    def outstanding(self) -> int:
        """Segments in flight (sent, unacknowledged)."""
        return self.snd_nxt - self.snd_una

    def effective_window(self) -> int:
        """min(cwnd, advertised window), in whole segments."""
        return max(1, min(int(self.cwnd), self._window_segments))

    def current_timeout(self) -> float:
        """RTO with the current exponential backoff applied."""
        backed_off = self.estimator.rto() * (2 ** self.backoff_exp)
        return min(MAX_RTO, backed_off)

    def rearm_rtx_timer(self) -> None:
        """Re-arm the retransmission timer at the current timeout value.

        This is the paper's entire EBSN response (Appendix): cancel any
        pending timer and set a fresh one from the *existing* RTT/
        variance estimate — no window change, no estimator pollution.
        """
        if self.completed or self.outstanding == 0:
            return
        self.rtx_timer.restart(self.current_timeout())
        self.stats.ebsn_timer_rearms += 1

    # ------------------------------------------------------------------
    # Datagram input
    # ------------------------------------------------------------------

    def receive(self, datagram: Datagram) -> None:
        """Agent entry point: ACKs and ICMP messages addressed to us."""
        payload = datagram.payload
        if isinstance(payload, TcpAck):
            if self.completed:
                return
            if self.ecn_enabled and payload.ecn_echo:
                self._ecn_response()
            ack_seq = payload.ack_seq
            if ack_seq > self.snd_una:
                self._handle_new_ack(ack_seq)
            elif ack_seq == self.snd_una and self.outstanding > 0:
                self._handle_dupack()
        elif isinstance(payload, IcmpMessage):
            self._handle_icmp(payload)
        elif isinstance(payload, TcpSegment):
            raise TypeError("bulk sender received a data segment")

    def _handle_icmp(self, message: IcmpMessage) -> None:
        if self.icmp_handler is not None:
            self.icmp_handler(self, message)
        # Without an installed policy, ICMP is ignored (basic TCP).

    def _handle_new_ack(self, ack_seq: int) -> None:
        highest_acked = ack_seq - 1

        # RTT sample: only if the timed segment is covered and was
        # never retransmitted (Karn's rule).
        if (
            self._timed_seq is not None
            and ack_seq > self._timed_seq
            and self._timed_seq not in self._ever_retransmitted
        ):
            self.estimator.sample(self._sim._now - self._timed_at)
        if self._timed_seq is not None and ack_seq > self._timed_seq:
            self._timed_seq = None

        # Karn/Partridge: keep the backed-off RTO until an ACK arrives
        # for a segment that was transmitted exactly once.
        if highest_acked not in self._ever_retransmitted:
            self.backoff_exp = 0

        self.snd_una = ack_seq
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        self.dupacks = 0

        # Window growth, per new ACK (not per segment acked).
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd
        if self.record_cwnd:
            self.stats.cwnd_trace.append((self._sim._now, self.cwnd))

        if self._transfer_finished():
            self._complete()
            return

        # Restart the timer for the remaining in-flight data; an idle
        # stream-fed sender (acked everything, nothing queued yet)
        # must not leave a stale timer armed.
        if self.outstanding > 0 or self.snd_nxt < self.total_segments:
            self.rtx_timer.restart(self.current_timeout())
        else:
            self.rtx_timer.cancel()
        self._send_pending()

    def _handle_dupack(self) -> None:
        self.dupacks += 1
        if self.dupacks == DUPACK_THRESHOLD:
            self._fast_retransmit()

    def _ecn_response(self) -> None:
        """Halve the window on a congestion echo, once per window.

        Per Floyd '94: the source reacts as it would to a single
        packet drop detected by fast retransmit — ssthresh and cwnd
        halve — but nothing is retransmitted and the RTO is untouched.
        """
        if self.snd_una < self._ecn_recover:
            return  # already responded within this window of data
        self.stats.ecn_responses += 1
        flight = max(self.outstanding, 1)
        self.ssthresh = max(2.0, min(self.cwnd, float(flight)) / 2.0)
        self.cwnd = self.ssthresh
        self._ecn_recover = self.snd_nxt

    # ------------------------------------------------------------------
    # Loss responses
    # ------------------------------------------------------------------

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self._loss_response()
        self.rtx_timer.restart(self.current_timeout())
        self._send_pending()

    def _on_timeout(self) -> None:
        if self.completed:
            return
        self.stats.timeouts += 1
        self.backoff_exp = min(self.backoff_exp + 1, MAX_BACKOFF_DOUBLINGS)
        # A timeout invalidates any in-progress RTT measurement.
        self._timed_seq = None
        self._loss_response()
        self.rtx_timer.restart(self.current_timeout())
        self._send_pending()

    def _loss_response(self) -> None:
        """Tahoe's reaction to any loss signal: collapse to slow start."""
        flight = max(self.outstanding, 1)
        self.ssthresh = max(2.0, min(self.cwnd, float(flight)) / 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.snd_nxt = self.snd_una  # go-back-N from the hole
        if self.record_cwnd:
            self.stats.cwnd_trace.append((self._sim._now, self.cwnd))

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def _transfer_finished(self) -> bool:
        """All data acknowledged (message variants add 'and closed')."""
        return self.snd_una >= self.total_segments

    def _segment_payload_bytes(self, seq: int) -> int:
        payload = self._segment_payload
        if seq == self.total_segments - 1:
            return self.transfer_bytes - seq * payload
        return payload

    def _send_pending(self) -> None:
        limit = self.snd_una + self.effective_window()
        while self.snd_nxt < limit and self.snd_nxt < self.total_segments:
            self._transmit(self.snd_nxt)
            self.snd_nxt += 1

    def _transmit(self, seq: int) -> None:
        is_retx = seq < self._high_water
        payload_bytes = self._segment_payload_bytes(seq)
        now = self._sim._now
        size = payload_bytes + TCP_IP_HEADER_BYTES
        packet = datagram(
            self._node.name, self.dst, tcp_segment(seq, payload_bytes), size
        )

        self.stats.segments_sent += 1
        self.stats.bytes_sent_wire += size
        if is_retx:
            self.stats.retransmissions += 1
            self.stats.retransmitted_bytes_wire += size
            self._ever_retransmitted.add(seq)
        else:
            self._high_water = seq + 1
        if self.trace is not None:
            self.trace.record_send(now, seq, is_retx)

        if self._timed_seq is None and not is_retx:
            self._timed_seq = seq
            self._timed_at = now

        if not self.rtx_timer.pending:
            self.rtx_timer.start(self.current_timeout())

        self._node.send(packet)

    def _complete(self) -> None:
        self.completed = True
        self.stats.completed_at = self._sim._now
        self.rtx_timer.cancel()
        if self.on_complete is not None:
            self.on_complete()
