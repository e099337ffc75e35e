"""TCP NewReno — partial-ACK fast recovery (RFC 2582, an extension).

Classic Reno leaves fast recovery on the first new ACK even when that
ACK only covers part of the outstanding window ("partial ACK"), so a
burst that drops several segments from one window costs Reno one fast
retransmit *per RTT* or a timeout.  NewReno stays in fast recovery
until the whole window outstanding at loss detection (``recover``) is
acknowledged, retransmitting the next hole immediately on each partial
ACK.

Relevant here because a short fade clips several segments of one
window: NewReno recovers them in one RTT each without collapsing, and
the ablation shows how far transport-only fixes can go compared with
the paper's link-layer + EBSN approach.
"""

from __future__ import annotations

from repro.tcp.reno import RenoSender


class NewRenoSender(RenoSender):
    """Reno with RFC 2582 partial-ACK handling."""

    def _handle_new_ack(self, ack_seq: int) -> None:
        if self.in_fast_recovery and ack_seq < self._recover_seq:
            # Partial ACK: the next segment is also lost.  Retransmit
            # it right away, deflate by the amount acked, and stay in
            # fast recovery.
            newly = ack_seq - self.snd_una
            self.snd_una = ack_seq
            self.dupacks = 0
            self.cwnd = max(1.0, self.cwnd - newly + 1)
            self._retransmit_one(ack_seq)
            self.rtx_timer.restart(self.current_timeout())
            if self._timed_seq is not None and ack_seq > self._timed_seq:
                self._timed_seq = None  # sample unusable mid-recovery
            return
        super()._handle_new_ack(ack_seq)
