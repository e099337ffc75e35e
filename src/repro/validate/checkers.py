"""The concrete invariant checkers.

Each checker guards one class of protocol property the paper's claims
rest on:

* :class:`TimerSanityChecker` — engine: the heap's cancelled-entry
  count, heap order and pending times stay consistent (audited at the
  end of the run).
* :class:`TcpStateChecker` — transport: sequence monotonicity and
  cwnd/ssthresh legality under the Tahoe/Reno/NewReno state machines.
* :class:`ArqBoundChecker` — link layer: no frame is ever transmitted
  more than RTmax times (the paper's CDPD bound, 13).
* :class:`EbsnWindowChecker` — the paper's core contract: EBSN re-arms
  the retransmission timer and does *nothing else*; any window action
  from the EBSN handler is a violation.
* :class:`DeliveryChecker` — receive path: nothing is delivered after
  the connection completed (no delivery after FIN) and the sink never
  holds more in-order payload than the source has produced.
* :class:`ConservationChecker` — end of run: every transferred byte
  was delivered exactly once, and the accounting counters agree.

Checkers read a topology's ``connections`` (sender, sink pairs) and
its wireless ``ports``, so one set covers every study a campaign runs.
All checkers are pure observers: they wrap existing callbacks, draw no
randomness, and schedule nothing, so validated runs are bit-identical
to unvalidated ones.
"""

from __future__ import annotations

from repro.net.packet import IcmpMessage, IcmpType
from repro.tcp.tahoe import DUPACK_THRESHOLD
from repro.validate.engine import InvariantChecker

#: Slack for float comparisons on cwnd/ssthresh (segments).
_EPS = 1e-9


class TimerSanityChecker(InvariantChecker):
    """The simulator's heap accounting stays consistent.

    An audit of the event heap: ``_cancelled_count`` equals the number
    of cancelled entries in the heap, the heap order holds, and no
    pending event lies in the past.  It runs once, at the end of the
    run.  A lazy-deletion bug, such as a cancelled event that fires
    anyway, breaks the count and surfaces here instead of as a mystery
    retransmission.  Nothing runs per event, so an unvalidated run and
    the hot dispatch loop pay nothing.
    """

    name = "timer-sanity"

    def finalize(self, scenario, result, report) -> None:
        """Audit the heap as the run left it."""
        self._audit(scenario.sim, report, "at end of run")

    @staticmethod
    def _audit(sim, report, when: str) -> None:
        heap = sim._heap
        # An entry [time, seq, callback, args] is cancelled once its
        # callback slot is cleared.
        dead = sum(1 for entry in heap if entry[2] is None)
        if dead != sim._cancelled_count:
            report(
                f"cancelled-event count {sim._cancelled_count} but {dead} "
                f"cancelled entries in the heap ({when})"
            )
        for i in range(1, len(heap)):
            if heap[i] < heap[(i - 1) // 2]:
                report(f"heap order broken at entry {i} ({when})")
                break
        for time, _, callback, _ in heap:
            if callback is not None and time < sim.now:
                report(
                    f"pending event at t={time:.6f} is in the past "
                    f"(now={sim.now:.6f}, {when})"
                )
                break


class TcpStateChecker(InvariantChecker):
    """Sequence monotonicity and window legality at the TCP source.

    After every datagram the source processes: ``snd_una`` never moves
    backwards, ``snd_una <= snd_nxt``, ``cwnd >= 1``, ``ssthresh >= 2``,
    and cwnd grows by at most ``DUPACK_THRESHOLD + 1`` segments per
    event (the largest single-step growth any of Tahoe/Reno/NewReno
    permits — slow start adds 1, Reno's fast retransmit sets
    ``cwnd = ssthresh + 3``).  A timeout must collapse cwnd to 1
    (all three variants revert to slow start on timeout).
    """

    name = "tcp-state"

    def watch(self, sender, sink, report) -> None:
        """Wrap the source's receive path and retransmission timer."""
        max_growth = DUPACK_THRESHOLD + 1 + _EPS
        original_receive = sender.receive

        def receive(datagram):
            una_before = sender.snd_una
            cwnd_before = sender.cwnd
            original_receive(datagram)
            if sender.snd_una < una_before:
                report(
                    f"snd_una moved backwards: {una_before} -> {sender.snd_una}"
                )
            if sender.snd_nxt < sender.snd_una:
                report(
                    f"snd_nxt {sender.snd_nxt} fell below snd_una {sender.snd_una}"
                )
            if sender.cwnd < 1.0 - _EPS:
                report(f"cwnd fell below one segment: {sender.cwnd:.6f}")
            if sender.ssthresh < 2.0 - _EPS:
                report(f"ssthresh fell below two segments: {sender.ssthresh:.6f}")
            growth = sender.cwnd - cwnd_before
            if growth > max_growth:
                report(
                    f"cwnd grew by {growth:.3f} segments on one event "
                    f"(legal maximum {DUPACK_THRESHOLD + 1})"
                )

        sender.receive = receive

        # The rtx timer captured its callback at construction, so wrap
        # the timer's callback rather than the (already-bound) method.
        timer = sender.rtx_timer
        inner_timeout = timer._callback

        def on_timeout():
            was_completed = sender.completed
            inner_timeout()
            if (
                not was_completed
                and not sender.completed
                and abs(sender.cwnd - 1.0) > _EPS
            ):
                report(
                    f"timeout did not collapse cwnd to 1 (cwnd={sender.cwnd:.6f})"
                )

        timer._callback = on_timeout


class ArqBoundChecker(InvariantChecker):
    """No link frame is transmitted more than RTmax times."""

    name = "arq-rtmax"

    def attach(self, scenario, report) -> None:
        """Wrap every wireless port's transmit path."""
        for port in scenario.ports:
            self._wrap(port, report)

    @staticmethod
    def _wrap(port, report) -> None:
        rtmax = port.arq_config.rtmax
        original_transmit = port._transmit

        def transmit(entry):
            original_transmit(entry)
            if entry.attempts > rtmax:
                report(
                    f"{port.name}: frame uid={entry.frame.uid} reached "
                    f"{entry.attempts} transmissions (RTmax={rtmax})"
                )

        port._transmit = transmit


class EbsnWindowChecker(InvariantChecker):
    """EBSN must never modify cwnd/ssthresh (the paper's Appendix).

    The source's entire EBSN response is "re-arm the retransmission
    timer at the current timeout"; any window action would change the
    congestion behaviour the paper explicitly leaves untouched.
    Source-quench messages *do* shrink the window, so only
    ``IcmpType.EBSN`` deliveries are held to this contract.
    """

    name = "ebsn-no-window-action"

    def watch(self, sender, sink, report) -> None:
        """Wrap the source's ICMP handler with a window snapshot."""
        original_handle = sender._handle_icmp

        def handle_icmp(message: IcmpMessage):
            window_before = (sender.cwnd, sender.ssthresh)
            original_handle(message)
            if (
                message.icmp_type is IcmpType.EBSN
                and (sender.cwnd, sender.ssthresh) != window_before
            ):
                report(
                    f"EBSN handler modified the window: cwnd "
                    f"{window_before[0]:.3f} -> {sender.cwnd:.3f}, ssthresh "
                    f"{window_before[1]:.3f} -> {sender.ssthresh:.3f}"
                )

        sender._handle_icmp = handle_icmp


class DeliveryChecker(InvariantChecker):
    """No delivery after FIN; delivered bytes never exceed produced bytes.

    Wraps the sink's in-order delivery path.  ``sender.transfer_bytes``
    is read at check time, so stream-fed senders (the interactive
    workload) are bounded by what the application has queued so far.
    """

    name = "delivery"

    def watch(self, sender, sink, report) -> None:
        """Wrap the sink's in-order delivery callback."""
        original_deliver = sink._deliver
        # Under SPLIT the source legitimately completes (relay ACKed
        # everything) while the relay is still draining to the sink, so
        # only the sink's own FIN bounds deliveries there.
        watch_sender = not _split(sink)

        def deliver(payload_bytes):
            if sink.completed or (watch_sender and sender.completed):
                report(
                    f"{payload_bytes} B delivered after the connection "
                    f"completed (no delivery after FIN)"
                )
            original_deliver(payload_bytes)
            ceiling = getattr(sender, "transfer_bytes", None)
            if (
                ceiling is not None
                and sink.stats.useful_payload_bytes > ceiling
            ):
                report(
                    f"sink delivered {sink.stats.useful_payload_bytes} B "
                    f"in order but the source only produced {ceiling} B "
                    f"(duplicate delivery)"
                )

        sink._deliver = deliver


class ConservationChecker(InvariantChecker):
    """End-of-run byte/packet conservation and counter consistency,
    per connection, from the sender's and sink's own counters."""

    name = "conservation"

    def finalize(self, scenario, result, report) -> None:
        """Check byte conservation and counter consistency at end of run."""
        for sender, sink in scenario.connections:
            self._check(sender, sink, report)

    @staticmethod
    def _check(sender, sink, report) -> None:
        split = _split(sink)
        completed = sink.completed if split else sender.completed
        stats = sender.stats
        useful_wire = sink.stats.useful_wire_bytes
        goodput = useful_wire / stats.bytes_sent_wire if stats.bytes_sent_wire else 0.0

        if completed:
            expected = getattr(sender, "transfer_bytes", None)
            delivered = sink.stats.useful_payload_bytes
            if expected is not None and delivered != expected:
                report(
                    f"completed transfer delivered {delivered} B in order "
                    f"but the source produced {expected} B"
                )

        if completed and goodput <= 0.0:
            report("completed transfer reports zero goodput")

        if stats.retransmitted_bytes_wire > stats.bytes_sent_wire:
            report(
                f"retransmitted wire bytes ({stats.retransmitted_bytes_wire}) "
                f"exceed total wire bytes ({stats.bytes_sent_wire})"
            )
        expected_retx = stats.segments_sent - sender.total_segments
        if completed and stats.retransmissions != expected_retx:
            report(
                f"retransmission accounting broke: counter says "
                f"{stats.retransmissions}, sends minus segments says "
                f"{expected_retx}"
            )
        # The split relay re-segments onto the wireless hop with its
        # own headers, so the source's wire bytes don't bound the
        # sink's (and goodput — their ratio — can exceed 1); every
        # other connection forwards the source's packets unchanged.
        if not split:
            if goodput > 1.0 + _EPS:
                report(f"goodput exceeds 1: {goodput:.6f}")
            if useful_wire > stats.bytes_sent_wire:
                report(
                    f"useful wire bytes ({useful_wire}) exceed "
                    f"bytes the source sent ({stats.bytes_sent_wire})"
                )


def _split(sink) -> bool:
    """Whether ``sink`` ends a split connection: only there is a sink
    told the transfer size, since the source completes early."""
    return sink.expected_bytes is not None


def default_checkers(scenario):
    """The standard checker set for one run of any topology."""
    return [
        TimerSanityChecker(),
        TcpStateChecker(),
        ArqBoundChecker(),
        EbsnWindowChecker(),
        DeliveryChecker(),
        ConservationChecker(),
    ]
