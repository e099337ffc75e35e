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

from repro.experiments.topology import Scenario, Scheme
from repro.experiments.config import wan_scenario
from repro.tcp import MessageSender


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


@dataclass
class InteractiveConfig:
    """One interactive session."""

    scheme: Scheme = Scheme.BASIC
    keystrokes: int = 300
    #: EBSN heartbeat interval (s), forwarded to the scenario; only
    #: meaningful with Scheme.EBSN.  See EbsnGenerator.
    ebsn_heartbeat: "float | None" = None
    seed: int = 1

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


def run_interactive_session(
    config: InteractiveConfig, wall_timeout: Optional[float] = None
) -> InteractiveResult:
    """Type ``keystrokes`` keystrokes across the wireless path
    (``wall_timeout``: the engine's wall-clock watchdog)."""
    scenario_config = wan_scenario(
        scheme=config.scheme,
        packet_size=576,  # MSS; keystroke segments are far smaller
        bad_period_mean=BAD_PERIOD_MEAN,
        transfer_bytes=1,  # placeholder; MessageSender resets totals
        seed=config.seed,
        record_trace=False,
    )
    scenario_config = replace(
        scenario_config,
        sender_factory=MessageSender,
        ebsn_heartbeat=config.ebsn_heartbeat,
    )
    scenario = Scenario(scenario_config)
    sim = scenario.sim
    sender: MessageSender = scenario.sender  # type: ignore[assignment]
    rng = scenario.streams.stream("typist")

    typed_at: Dict[int, float] = {}
    latencies: List[float] = []
    remaining = {"count": config.keystrokes}

    def deliver_hook(seq: int, payload_bytes: int) -> None:
        latencies.append(sim.now - typed_at[seq])

    scenario.sink.on_segment = deliver_hook

    def type_key() -> None:
        seq = sender.send_message(KEYSTROKE_BYTES)
        typed_at[seq] = sim.now
        remaining["count"] -= 1
        if remaining["count"] > 0:
            sim.schedule(rng.expovariate(1.0 / THINK_TIME_MEAN), type_key)
        else:
            sender.close()

    sim.schedule(rng.expovariate(1.0 / THINK_TIME_MEAN), type_key)
    result = scenario.run(wall_timeout=wall_timeout)

    return InteractiveResult(
        latency=LatencyStats.from_samples(latencies),
        timeouts=result.sender.stats.timeouts,
        duration=result.metrics.duration,
        completed=result.completed,
    )
