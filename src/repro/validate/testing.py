"""Fault-injection doubles for validator self-tests.

A validator that has never seen a violation is untested.  These
senders misbehave in precisely the ways the checkers guard against,
and — crucially — they are *importable and configurable through*
:class:`~repro.experiments.topology.ScenarioConfig.sender_factory`,
so a violation they cause can be captured in a replay bundle and
reproduced by ``repro replay`` from the config alone.
"""

from __future__ import annotations

from repro.tcp.tahoe import TahoeSender


class CwndMutatingEbsnSender(TahoeSender):
    """Violates EBSN's no-window-action contract.

    The paper's EBSN response is exactly "re-arm the retransmission
    timer"; this double also grows cwnd on every re-arm, which the
    ``ebsn-no-window-action`` checker must catch on the first EBSN
    that arrives.
    """

    def rearm_rtx_timer(self) -> None:
        """Re-arm the timer, then illegally inflate the window."""
        super().rearm_rtx_timer()
        self.cwnd += 5.0


class BackwardsAckSender(TahoeSender):
    """Violates sequence monotonicity: snd_una jumps backwards.

    Processing any ACK beyond segment 2 rewinds ``snd_una``, which the
    ``tcp-state`` checker must flag on the spot.
    """

    def _handle_new_ack(self, ack_seq: int) -> None:
        """Process the ACK, then illegally rewind ``snd_una``."""
        super()._handle_new_ack(ack_seq)
        if self.snd_una > 2:
            self.snd_una -= 2


class ResurrectedEventSender(TahoeSender):
    """Breaks the simulator's lazy-deletion accounting.

    On start it schedules a no-op, cancels it through the API, then
    puts the callback back in the entry: the event fires although the
    simulator still counts it as dead.  The ``timer-sanity`` audit must
    catch the count mismatch at the end of the run.
    """

    def start(self) -> None:
        """Start the transfer, then resurrect a cancelled event."""
        super().start()
        event = self._sim.schedule(1.0, lambda: None)
        callback = event[2]
        self._sim.cancel(event)
        event[2] = callback
