"""The CSDP study: N TCP connections sharing one base-station radio.

Topology (one row per connection i):

    FH_i ──wired──▶ BS ──(shared DownlinkRadio)──▶ MH_i
    FH_i ◀──wired── BS ◀──(per-MH plain uplink)─── MH_i

Each mobile host fades independently; the radio serves all of them
under a configurable scheduler.  The TCP ACK path uses a per-MH plain
uplink (no contention — the study isolates downlink scheduling, and
the paper's §3.1 treats MAC delay as negligible).  The rest is fixed:
the module constants below, and :class:`~repro.tcp.TcpConfig`'s WAN
defaults (576 B packets, 4 KB window) at every source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.csdp.radio import DownlinkRadio, RadioStats
from repro.csdp.scheduling import (
    CsdpScheduler,
    FifoScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.engine import MAX_SIM_TIME
from repro.experiments.topology import Topology
from repro.net.node import Node
from repro.net.wireless import WirelessLinkConfig
from repro.tcp import TahoeSender, TcpConfig, TcpSink


#: Each FH<->BS wired hop: bandwidth (bps), one-way delay (s).  The
#: wired side is never the bottleneck.
WIRED_BANDWIDTH_BPS = 2_000_000.0
WIRED_PROP_DELAY = 0.005
#: The shared downlink radio and every uplink (the paper's WAN link).
WIRELESS = WirelessLinkConfig()
#: Each mobile host's fading: mean good and bad periods (s).
GOOD_PERIOD_MEAN = 4.0
BAD_PERIOD_MEAN = 1.0


@dataclass
class CsdpStudyConfig:
    """Parameters of one multi-connection run."""

    scheduler: str = "fifo"  # "fifo" | "rr" | "csdp"
    n_connections: int = 4
    transfer_bytes: int = 50 * 1024
    csdp_probe_interval: float = 0.5
    seed: int = 1

    def build_scheduler(self) -> Scheduler:
        """Instantiate the configured scheduling policy."""
        if self.scheduler == "fifo":
            return FifoScheduler()
        if self.scheduler == "rr":
            return RoundRobinScheduler()
        if self.scheduler == "csdp":
            return CsdpScheduler(probe_interval=self.csdp_probe_interval)
        raise ValueError(f"unknown scheduler {self.scheduler!r}")


@dataclass
class CsdpStudyResult:
    """Aggregate and per-connection outcomes."""

    config: CsdpStudyConfig
    #: Total user payload delivered / time of last completion (bps).
    aggregate_throughput_bps: float
    per_connection_throughput_bps: List[float]
    completion_times: List[float]
    total_timeouts: int
    radio: RadioStats
    all_completed: bool

    @property
    def completed(self) -> bool:
        """Whether the run finished: the flag every unit summary has."""
        return self.all_completed

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over per-connection throughputs."""
        xs = self.per_connection_throughput_bps
        total = sum(xs)
        squares = sum(x * x for x in xs)
        if squares == 0:
            return 0.0
        return total * total / (len(xs) * squares)


class CsdpStudy(Topology):
    """The N-connection topology for one :class:`CsdpStudyConfig`."""

    def __init__(self, config: CsdpStudyConfig) -> None:
        super().__init__(config)
        sim = self.sim
        n = config.n_connections
        mh_names = [f"MH{i}" for i in range(n)]

        self.bs = Node("BS")

        # Independent fading per mobile host.
        self.channels = {
            name: self.fading(name, GOOD_PERIOD_MEAN, BAD_PERIOD_MEAN)
            for name in mh_names
        }

        self.mh_nodes: Dict[str, Node] = {name: Node(name) for name in mh_names}
        self.radio = DownlinkRadio(
            sim,
            WIRELESS,
            self.channels,
            config.build_scheduler(),
            rng=self.streams.stream("radio-backoff"),
            deliver=self._deliver,
        )

        # The fixed hosts and links, kept for the event log.
        self.fh_nodes, self.links = [], []
        self.remaining = n

        for i, mh_name in enumerate(mh_names):
            fh_name = f"FH{i}"
            fh = Node(fh_name)
            mh = self.mh_nodes[mh_name]
            self.fh_nodes.append(fh)

            wired_down, wired_up = self.wired_pair(
                fh, self.bs, WIRED_BANDWIDTH_BPS, WIRED_PROP_DELAY,
                (mh_name, "BS"), (fh_name,),
            )
            # Plain per-MH uplink for TCP ACKs (shares the MH's fading).
            uplink, up_port = self.plain_uplink(
                WIRELESS, self.channels[mh_name], f"{mh_name}->BS", f"up-{mh_name}",
                self.bs.receive, reassembly_timeout=60.0,
            )
            mh.add_interface(up_port.send_datagram, fh_name, "BS")
            self.links += [wired_down, wired_up, uplink]

            sender = TahoeSender(
                sim,
                fh,
                mh_name,
                config=TcpConfig(transfer_bytes=config.transfer_bytes),
                on_complete=self._one_done,
            )
            fh.attach_agent(sender)
            sink = TcpSink(sim, mh, fh_name)
            mh.attach_agent(sink)
            self.connections.append((sender, sink))

        self.bs.add_interface(self.radio.send_datagram, *mh_names)

    def _deliver(self, datagram) -> None:
        self.mh_nodes[datagram.dst].receive(datagram)

    def _one_done(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.sim.stop()

    def run(self, wall_timeout: Optional[float] = None) -> CsdpStudyResult:
        """Run all transfers (``wall_timeout``: the engine's wall-clock
        watchdog)."""
        senders, sinks = zip(*self.connections)
        for sender in senders:
            sender.start()
        self.sim.run(until=MAX_SIM_TIME, wall_timeout=wall_timeout)

        completion_times = [
            s.stats.completed_at if s.stats.completed_at is not None else self.sim.now
            for s in senders
        ]
        per_conn = [
            (sink.stats.useful_payload_bytes * 8 / t) if t > 0 else 0.0
            for sink, t in zip(sinks, completion_times)
        ]
        total_payload = sum(sink.stats.useful_payload_bytes for sink in sinks)
        span = max(completion_times) if completion_times else 0.0
        return CsdpStudyResult(
            config=self.config,
            aggregate_throughput_bps=total_payload * 8 / span if span > 0 else 0.0,
            per_connection_throughput_bps=per_conn,
            completion_times=completion_times,
            total_timeouts=sum(s.stats.timeouts for s in senders),
            radio=self.radio.stats,
            all_completed=all(s.completed for s in senders),
        )


def run_csdp_study(config: CsdpStudyConfig) -> CsdpStudyResult:
    """Build the N-connection topology and run all transfers, validated
    as :meth:`~repro.experiments.topology.Topology.simulate` says."""
    return CsdpStudy.simulate(config)
