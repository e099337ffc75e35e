"""Telnet-style interactive traffic over the paper's topology.

A user types at a fixed host; each keystroke is a small TCP segment
that must reach the mobile host (think a remote shell session on the
move).  The metric is per-keystroke delivery latency — what the user
*feels* — and the tail of its distribution is dominated by exactly the
timeout stalls the paper's EBSN removes: a keystroke typed just before
a fade waits out the fade plus, for basic TCP, the backed-off
retransmission timer.

Think times are exponential (a Poisson typist).  The session reuses
the standard Fig-2 scenario machinery, so every recovery scheme can be
measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.experiments.topology import (
    Scenario,
    ScenarioDefaults,
    ScenarioResult,
    Scheme,
)
from repro.experiments.config import wan_scenario
from repro.tcp.messages import MessageSender


#: User payload of one keystroke segment (bytes).
KEYSTROKE_BYTES = 8
#: The session's mean bad period (s); the good period is the WAN study's.
BAD_PERIOD_MEAN = 2.0
#: Mean think time between keystrokes (s).
THINK_TIME_MEAN = 0.5


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of per-keystroke delivery latencies (s)."""

    count: int
    mean: float
    p50: float
    p95: float
    worst: float

    @classmethod
    def from_samples(cls, samples: List[float]) -> "LatencyStats":
        """Summarize a non-empty list of latency samples."""
        if not samples:
            raise ValueError("no latency samples")
        ordered = sorted(samples)

        def pct(q: float) -> float:
            index = min(int(q * len(ordered)), len(ordered) - 1)
            return ordered[index]

        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=pct(0.50),
            p95=pct(0.95),
            worst=ordered[-1],
        )


#: The scenario a session types over: the WAN study's, with MSS-sized
#: segments (keystroke segments are far smaller), the session's fades
#: and the keystroke sender.  ``transfer_bytes`` is a placeholder:
#: MessageSender resets its totals.
SESSION_SCENARIO = replace(
    wan_scenario(
        packet_size=576,
        bad_period_mean=BAD_PERIOD_MEAN,
        transfer_bytes=1,
        record_trace=False,
    ),
    sender_factory=MessageSender,
)


@dataclass
class InteractiveConfig(ScenarioDefaults):
    """One interactive session."""

    scheme: Scheme = Scheme.BASIC
    keystrokes: int = 300
    #: EBSN heartbeat interval (s), forwarded to the scenario; only
    #: meaningful with Scheme.EBSN.  See EbsnGenerator.
    ebsn_heartbeat: "float | None" = None
    seed: int = 1

    # Where the session scenario departs from the defaults.
    tcp = SESSION_SCENARIO.tcp
    channel = SESSION_SCENARIO.channel
    wireless = SESSION_SCENARIO.wireless
    sender_factory = SESSION_SCENARIO.sender_factory

    def __post_init__(self) -> None:
        if self.keystrokes < 1:
            raise ValueError("need at least one keystroke")


@dataclass
class InteractiveResult:
    """Outcome of one session."""

    latency: LatencyStats
    timeouts: int
    duration: float
    completed: bool


class InteractiveSession(Scenario):
    """The Fig. 2 scenario with a typist at the fixed host.

    Each keystroke is one small segment; the sink records when it is
    delivered in order.
    """

    config: InteractiveConfig

    def __init__(self, config: InteractiveConfig) -> None:
        super().__init__(config)
        self.typist = self.streams.stream("typist")
        self.typed_at: Dict[int, float] = {}
        self.latencies: List[float] = []
        self.remaining = config.keystrokes
        self.sink.on_segment = self._delivered

    def _relayed(self) -> int:
        """A split session's relay closes after the last keystroke (the
        config's transfer size is a placeholder)."""
        return self.config.keystrokes * KEYSTROKE_BYTES

    def _delivered(self, seq: int, payload_bytes: int) -> None:
        self.latencies.append(self.sim.now - self.typed_at[seq])

    def _think(self) -> None:
        self.sim.schedule(self.typist.expovariate(1.0 / THINK_TIME_MEAN), self._type_key)

    def _type_key(self) -> None:
        seq = self.sender.send_message(KEYSTROKE_BYTES)
        self.typed_at[seq] = self.sim.now
        self.remaining -= 1
        if self.remaining > 0:
            self._think()
        else:
            self.sender.close()

    def run(self, wall_timeout: Optional[float] = None) -> ScenarioResult:
        """Type ``keystrokes`` keystrokes across the wireless path
        (``wall_timeout``: the engine's wall-clock watchdog)."""
        self._think()
        return super().run(wall_timeout=wall_timeout)

    def outcome(self, result: ScenarioResult) -> InteractiveResult:
        """The session's result for its finished ``result``."""
        return InteractiveResult(
            latency=LatencyStats.from_samples(self.latencies),
            timeouts=result.sender.stats.timeouts,
            duration=result.metrics.duration,
            completed=result.completed,
        )
