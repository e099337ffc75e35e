"""ns-style event logs: record, serialize, parse, analyze.

The original ns produced flat text traces (one line per network event)
that its users post-processed; the paper's Figs 3-5 came from such
traces.  :class:`EventLog` is this library's equivalent: components
are instrumented by wrapping their public callbacks
(:func:`attach_to_scenario`), every event becomes one record, and the
log round-trips through the classic whitespace format::

    <time> <event> <place> <kind> <size> <uid>

e.g. ``12.345678 corrupt BS->MH data 128 1042``.

:class:`EventLogAnalyzer` computes the usual post-processing products:
per-event counts, a delivered-bytes time series, and the distribution
of consecutive-loss run lengths (the burstiness fingerprint of the
two-state channel).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, TextIO

from repro.channel.bernoulli import BernoulliLossChannel
from repro.channel.twostate import TwoStateChannel
from repro.net.link import WiredLink
from repro.net.node import Node
from repro.net.wireless import WirelessLink


class TraceParseError(ValueError):
    """A line that does not parse as the whitespace trace format.

    Raised instead of the bare ``ValueError`` that ``float()``/``int()``
    would produce, so callers (and humans reading a traceback) see the
    offending line and field rather than just ``could not convert
    string to float``.
    """


class EventType(enum.Enum):
    """What happened to a packet or frame."""

    WIRED_SEND = "wired_send"
    WIRED_RECV = "wired_recv"
    WIRED_DROP = "wired_drop"
    AIR_SEND = "air_send"
    AIR_RECV = "air_recv"
    CORRUPT = "corrupt"


@dataclass(frozen=True, slots=True)
class Event:
    """One trace record."""

    time: float
    event: EventType
    place: str
    kind: str
    size_bytes: int
    uid: int

    def to_line(self) -> str:
        """Serialize to the whitespace trace format."""
        return (
            f"{self.time:.6f} {self.event.value} {self.place} "
            f"{self.kind} {self.size_bytes} {self.uid}"
        )

    @classmethod
    def from_line(cls, line: str) -> "Event":
        parts = line.split()
        if len(parts) != 6:
            raise TraceParseError(
                f"malformed trace line (expected 6 whitespace-separated "
                f"fields, got {len(parts)}): {line!r}"
            )
        try:
            time = float(parts[0])
        except ValueError:
            raise TraceParseError(
                f"bad time field {parts[0]!r} in trace line: {line!r}"
            ) from None
        try:
            event = EventType(parts[1])
        except ValueError:
            raise TraceParseError(
                f"unknown event type {parts[1]!r} in trace line: {line!r} "
                f"(know {sorted(e.value for e in EventType)})"
            ) from None
        try:
            size_bytes = int(parts[4])
            uid = int(parts[5])
        except ValueError:
            raise TraceParseError(
                f"bad size/uid field in trace line: {line!r}"
            ) from None
        return cls(
            time=time,
            event=event,
            place=parts[2],
            kind=parts[3],
            size_bytes=size_bytes,
            uid=uid,
        )


class EventLog:
    """Collects events; writable to / readable from text."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def record(
        self,
        time: float,
        event: EventType,
        place: str,
        kind: str,
        size_bytes: int,
        uid: int,
    ) -> None:
        """Append one event."""
        self.events.append(Event(time, event, place, kind, size_bytes, uid))

    def __len__(self) -> int:
        return len(self.events)

    def lines(self) -> Iterable[str]:
        """Serialized trace lines, in recording order."""
        return (e.to_line() for e in self.events)

    def write(self, fp: TextIO) -> int:
        """Write all lines to a file; returns the count."""
        count = 0
        for line in self.lines():
            fp.write(line + "\n")
            count += 1
        return count

    @classmethod
    def read(cls, fp: TextIO) -> "EventLog":
        """Parse a whitespace-format trace; blank lines are skipped.

        Raises :class:`TraceParseError` (with the 1-based line number)
        on the first malformed line.
        """
        log = cls()
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                log.events.append(Event.from_line(line))
            except TraceParseError as err:
                raise TraceParseError(f"line {lineno}: {err}") from None
        return log


def attach_to_scenario(scenario) -> EventLog:
    """Instrument a built (not yet run) topology with an event log.

    Wraps the ``send`` and delivery callbacks of every wired and
    wireless link the topology holds, and the corruption test of every
    channel: its attributes, and the items of its list, tuple and dict
    attributes.  Must be called before the topology's ``run``.

    Instrumentation is strictly opt-in: the wrappers below exist only
    on scenarios this function was called on.  An uninstrumented run
    dispatches the original bound methods directly — no ``if log:``
    checks, no indirection, zero cost on the hot path.  An instrumented
    run pays for a record per event, so validated runs do not log:
    :func:`~repro.validate.engine.run_validated` attaches a log only to
    the re-run that rebuilds a replay bundle's tail.
    """
    log = EventLog()
    sim = scenario.sim
    parts = list({id(part): part for part in _parts(scenario)}.values())
    nodes = [part for part in parts if isinstance(part, Node)]

    def wrap_wired(link):
        original_send = link.send

        def send(datagram):
            accepted = original_send(datagram)
            event = EventType.WIRED_SEND if accepted else EventType.WIRED_DROP
            log.record(
                sim.now, event, link.name, datagram.packet_type.value,
                datagram.size_bytes, datagram.uid,
            )
            return accepted

        link.send = send
        # Routes installed before instrumentation hold the bound
        # method, on whichever node sends into the link; rebind them to
        # the wrapper.
        for node in nodes:
            routes = node.routing._routes
            for dst, forward in routes.items():
                if forward == original_send:
                    routes[dst] = send
        original_receiver = link._receiver
        if original_receiver is not None:

            def receiver(datagram):
                log.record(
                    sim.now, EventType.WIRED_RECV, link.name,
                    datagram.packet_type.value, datagram.size_bytes, datagram.uid,
                )
                original_receiver(datagram)

            link.connect(receiver)

    def wrap_wireless(link):
        original_send = link.send

        def send(frame, on_tx_complete=None):
            log.record(
                sim.now, EventType.AIR_SEND, link.name, frame.kind.value,
                frame.size_bytes, frame.uid,
            )
            original_send(frame, on_tx_complete)

        link.send = send
        original_receiver = link._receiver
        if original_receiver is not None:

            def receiver(frame):
                log.record(
                    sim.now, EventType.AIR_RECV, link.name, frame.kind.value,
                    frame.size_bytes, frame.uid,
                )
                original_receiver(frame)

            link.connect(receiver)

    def wrap_channel(channel):
        original = channel.corrupts

        def corrupts(start, duration, nbits):
            corrupted = original(start, duration, nbits)
            if corrupted:
                log.record(
                    sim.now, EventType.CORRUPT, "channel", "frame",
                    nbits // 8, channel.frames_tested,
                )
            return corrupted

        channel.corrupts = corrupts

    for part in parts:
        if isinstance(part, WiredLink):
            wrap_wired(part)
        elif isinstance(part, WirelessLink):
            wrap_wireless(part)
        elif isinstance(part, (TwoStateChannel, BernoulliLossChannel)):
            wrap_channel(part)
    return log


def _parts(scenario):
    """A topology's attributes, and the items of its containers."""
    for value in vars(scenario).values():
        if isinstance(value, dict):
            yield from value.values()
        elif isinstance(value, (list, tuple)):
            yield from value
        else:
            yield value


class EventLogAnalyzer:
    """Post-processing over an :class:`EventLog`."""

    def __init__(self, log: EventLog) -> None:
        self.log = log

    def counts(self) -> Dict[EventType, int]:
        """Events per type."""
        out: Dict[EventType, int] = {}
        for event in self.log.events:
            out[event.event] = out.get(event.event, 0) + 1
        return out

    def loss_runs(self) -> List[int]:
        """Lengths of consecutive-corruption runs on the channel.

        A bursty (two-state) channel produces long runs; a uniform
        channel produces mostly 1s.  Computed over the interleaved
        air-send/corrupt sequence.
        """
        runs: List[int] = []
        current = 0
        for e in self.log.events:
            if e.event is EventType.CORRUPT:
                current += 1
            elif e.event is EventType.AIR_RECV:
                if current:
                    runs.append(current)
                current = 0
        if current:
            runs.append(current)
        return runs

    def mean_loss_run(self) -> float:
        """Average consecutive-loss run length (0.0 if lossless)."""
        runs = self.loss_runs()
        return sum(runs) / len(runs) if runs else 0.0
