"""Wired congestion and the ECN/EBSN interaction (§6 future work).

The paper assumes an uncongested wired network and defers "the impact
of congestion in the wired network on the effectiveness of EBSN ...
[and] the interaction between ECN and EBSN" to follow-up work.  This
module builds that experiment as a :class:`CongestedScenario`: the
Fig. 2 :class:`~repro.experiments.topology.Scenario` with a routed
wired side in place of its single FH<->BS hop,

    FH ──fast──▶ R ══ 56 kbps bottleneck (bounded queue, optional ECN
    XS ──fast──▶ R     marking) ══▶ BS ──wireless──▶ MH

``XS`` is a constant-bit-rate cross-traffic source that terminates at
the base station, loading the bottleneck to a configurable fraction of
its capacity.  Congestion now produces *real* drops (or ECN marks) on
the wired segment while the wireless hop keeps producing fades, so a
source may receive congestion signals and EBSNs in the same
connection: ECN must shrink the window, EBSN must only re-arm the
timer, and neither may mask the other.  The wireless hop, the scheme
wiring at the base station, and the hooks the invariant checkers and
the event log attach to are the base class's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine import Simulator
from repro.metrics import ConnectionMetrics
from repro.net.node import Node
from repro.net.packet import Datagram, TcpSegment
from repro.experiments.topology import (
    Scenario,
    ScenarioDefaults,
    ScenarioResult,
    Scheme,
)
from repro.tcp import TcpConfig

#: The R->BS bottleneck, and the uncongested BS->R reverse path (bps):
#: the paper's WAN wired link.
BOTTLENECK_BPS = ScenarioDefaults.wired_bandwidth_bps
#: Datagrams the bottleneck queue holds before it drops.
BOTTLENECK_QUEUE_PACKETS = 10
#: Queue depth at which the bottleneck ECN-marks arrivals (ECN on).
ECN_THRESHOLD_PACKETS = 4
#: The FH->R, XS->R and R->FH access links: never the bottleneck (bps).
ACCESS_BPS = 1_000_000.0
#: One-way delay of every wired link (s), the WAN wired link's.
WIRED_PROP_DELAY = ScenarioDefaults.wired_prop_delay


class CbrSource:
    """Constant-bit-rate cross traffic (UDP-like: no feedback, no
    retransmission)."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        dst: str,
        rate_bps: float,
        packet_size: int,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self._sim = sim
        self._node = node
        self.dst = dst
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.interval = packet_size * 8 / rate_bps
        self.packets_sent = 0
        self._seq = 0

    def start(self) -> None:
        """Begin emitting packets at the configured rate."""
        self._sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        segment = TcpSegment(seq=self._seq, payload_bytes=self.packet_size - 40)
        self._seq += 1
        self._node.send(
            Datagram(self._node.name, self.dst, segment, self.packet_size)
        )
        self.packets_sent += 1
        self._sim.schedule(self.interval, self._tick)


class CbrSink:
    """Counts cross-traffic arrivals at the base station."""

    def __init__(self) -> None:
        self.packets_received = 0
        self.bytes_received = 0

    def receive(self, datagram: Datagram) -> None:
        """Count one cross-traffic arrival."""
        self.packets_received += 1
        self.bytes_received += datagram.size_bytes


@dataclass
class CongestedScenarioConfig(ScenarioDefaults):
    """One run of the congestion/ECN/EBSN interaction experiment."""

    scheme: Scheme = Scheme.BASIC  # BASIC or EBSN
    ecn: bool = False
    #: Cross-traffic load as a fraction of the bottleneck capacity;
    #: 0.0 = no cross traffic.
    cross_load: float = 0.5
    tcp: TcpConfig = field(
        default_factory=lambda: TcpConfig(transfer_bytes=60 * 1024)
    )
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross_load < 1.5:
            raise ValueError(f"cross_load out of range: {self.cross_load}")
        if self.scheme not in (Scheme.BASIC, Scheme.EBSN):
            raise ValueError("congestion study supports BASIC and EBSN only")


@dataclass
class CongestedScenarioResult:
    metrics: ConnectionMetrics
    completed: bool
    bottleneck_drops: int
    ecn_marks: int
    ecn_responses: int
    ebsn_received: int
    timeouts: int
    fast_retransmits: int
    cross_packets_delivered: int


class CongestedScenario(Scenario):
    """The Fig. 2 scenario behind a congested, routed wired side.

    ``wired_down`` is the R->BS bottleneck and ``wired_up`` the BS->R
    reverse path; ``xs`` is the cross-traffic source's node.
    """

    config: CongestedScenarioConfig

    def __init__(self, config: CongestedScenarioConfig) -> None:
        super().__init__(config)
        self.sender.ecn_enabled = config.ecn
        self.cross: Optional[CbrSource] = None
        if config.cross_load > 0.0:
            self.cross = CbrSource(
                self.sim,
                self.xs,
                "BS",
                rate_bps=config.cross_load * BOTTLENECK_BPS,
                packet_size=config.tcp.packet_size,
            )

    def _build_wired(self) -> None:
        """FH and XS feed R over access links; R->BS is the bottleneck."""
        delay = WIRED_PROP_DELAY
        self.xs = Node("XS")
        router = Node("R")
        self.wired_pair(self.fh, router, ACCESS_BPS, delay, ("MH", "BS", "R"), ("FH",))
        # The bottleneck, with a bounded queue and optional ECN marking,
        # and its uncongested reverse path (ACKs, EBSNs).
        self.wired_down, self.wired_up = self.wired_pair(
            router, self.bs, BOTTLENECK_BPS, delay, ("MH", "BS"), ("FH",),
            queue_capacity=BOTTLENECK_QUEUE_PACKETS,
            ecn_threshold=ECN_THRESHOLD_PACKETS if self.config.ecn else None,
        )
        self.wired_link(self.xs, router, ACCESS_BPS, delay, ("BS",))
        self.cross_sink = CbrSink()
        self.bs.attach_agent(self.cross_sink)

    def run(self, wall_timeout: Optional[float] = None) -> ScenarioResult:
        """Start the cross traffic, then run the transfer."""
        if self.cross is not None:
            self.cross.start()
        return super().run(wall_timeout=wall_timeout)

    def outcome(self, result: ScenarioResult) -> CongestedScenarioResult:
        """The study's result for this scenario's finished ``result``."""
        sender = self.sender
        return CongestedScenarioResult(
            metrics=result.metrics,
            completed=result.completed,
            bottleneck_drops=self.wired_down.queue.stats.dropped,
            ecn_marks=self.wired_down.ecn_marks,
            ecn_responses=sender.stats.ecn_responses,
            ebsn_received=sender.stats.ebsn_received,
            timeouts=sender.stats.timeouts,
            fast_retransmits=sender.stats.fast_retransmits,
            cross_packets_delivered=self.cross_sink.packets_received,
        )


def run_congested_scenario(config: CongestedScenarioConfig) -> CongestedScenarioResult:
    """Build and run the FH/XS → R → BS → MH topology, validated as
    :meth:`~repro.experiments.topology.Topology.simulate` says."""
    return CongestedScenario.simulate(config)
