"""TCP Reno sender — fast recovery extension.

The paper used Tahoe (the ns default of the day); Reno is provided as
an extension/ablation to ask whether fast recovery changes the story
(it does not: wireless losses in a bad period kill whole windows, so
Reno's partial-loss machinery rarely engages — dupacks never arrive
when every fragment is lost).

Reno differs from Tahoe only in the reaction to the third duplicate
ACK: instead of collapsing to cwnd = 1, it halves the window
(ssthresh ← flight/2, cwnd ← ssthresh + 3), inflates cwnd per extra
dupack, and deflates to ssthresh when the retransmitted hole is
acknowledged.  Timeouts behave exactly as in Tahoe.
"""

from __future__ import annotations

from repro.tcp.tahoe import DUPACK_THRESHOLD, TahoeSender


class RenoSender(TahoeSender):
    """Tahoe sender with NewReno-free classic fast recovery."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.in_fast_recovery = False
        self._recover_seq = 0

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        flight = max(self.outstanding, 1)
        self.ssthresh = max(2.0, min(self.cwnd, float(flight)) / 2.0)
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD
        self.in_fast_recovery = True
        self._recover_seq = self.snd_nxt
        # Retransmit only the hole, keep snd_nxt where it is.
        self._retransmit_one(self.snd_una)
        self.rtx_timer.restart(self.current_timeout())

    def _retransmit_one(self, seq: int) -> None:
        saved_nxt = self.snd_nxt
        self.snd_nxt = seq
        self._transmit(seq)
        self.snd_nxt = max(saved_nxt, seq + 1)

    def _handle_dupack(self) -> None:
        if self.in_fast_recovery:
            self.cwnd += 1.0  # window inflation per extra dupack
            self._send_pending()
            return
        super()._handle_dupack()

    def _handle_new_ack(self, ack_seq: int) -> None:
        if self.in_fast_recovery:
            self.in_fast_recovery = False
            self.cwnd = self.ssthresh  # deflate
        super()._handle_new_ack(ack_seq)

    def _on_timeout(self) -> None:
        self.in_fast_recovery = False
        super()._on_timeout()
