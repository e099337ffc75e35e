"""The two-cell handoff topology and scenario runner.

    FH ──wired──▶ R ──▶ BS1 ─┐
                 │           ├─ wireless ─ MH  (attached to one BS)
                 └──▶ BS2 ──┘

The mobile host alternates between the base stations every
``handoff_interval`` seconds; each crossing disconnects it for
``disconnect_time``.  The router learns the new location when the
mobile host reattaches (registration is piggybacked on reattachment,
as in Mobile-IP-style schemes with instantaneous binding updates — the
disconnection interval models the whole outage).  The rest is fixed:
the module constants below, and :class:`~repro.tcp.TcpConfig`'s WAN
defaults (576 B packets, 4 KB window) at the source.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.channel import markov_channel
from repro.engine import MAX_SIM_TIME, RandomStreams, Simulator
from repro.linklayer import WirelessPort
from repro.metrics import ConnectionMetrics, compute_metrics
from repro.net.ip import Fragmenter, Reassembler
from repro.net.link import WiredLink
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck, data_frame
from repro.net.queues import DropTailQueue
from repro.net.wireless import WirelessLink, WirelessLinkConfig
from repro.tcp import TahoeSender, TcpConfig, TcpSink


class HandoffScheme(enum.Enum):
    """Recovery schemes for cell crossings."""

    BASELINE = "baseline"  # old-BS queue dropped; timeout recovers
    FAST_RTX = "fast_rtx"  # MH forces fast retransmit on reattach [4]
    FORWARD = "forward"  # old BS forwards its queue to the new BS
    FAST_RTX_FORWARD = "fast_rtx_forward"  # both


#: Every wired hop (FH<->R, R<->BS): bandwidth (bps), one-way delay (s).
WIRED_BANDWIDTH_BPS = 256_000.0
WIRED_PROP_DELAY = 0.005
#: Each cell's radio, in both directions (the paper's WAN link).
WIRELESS = WirelessLinkConfig()
#: Fading is kept mild to isolate the handoff effect (mean good and
#: bad periods, s).
GOOD_PERIOD_MEAN = 1000.0
BAD_PERIOD_MEAN = 0.01


@dataclass
class HandoffConfig:
    """Parameters of one handoff run."""

    scheme: HandoffScheme = HandoffScheme.BASELINE
    handoff_interval: float = 8.0
    disconnect_time: float = 0.3
    transfer_bytes: int = 100 * 1024
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.handoff_interval < math.inf:  # NaN fails every check
            raise ValueError("handoff_interval must be finite and positive")
        if not self.disconnect_time >= 0:
            raise ValueError("disconnect_time must be >= 0")
        if self.disconnect_time >= self.handoff_interval:
            raise ValueError("disconnect_time must be shorter than the interval")


class CellPort:
    """A base station's simple (fire-and-forget) wireless port, with a
    holdable datagram queue so handoffs can drop or forward it."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        link: WirelessLink,
        mtu_bytes: int,
    ) -> None:
        self._sim = sim
        self.name = name
        self.link = link
        self.fragmenter = Fragmenter(mtu_bytes)
        self.queue: DropTailQueue[Datagram] = DropTailQueue(name=f"{name}.q")
        self.attached = False
        self._sending = False
        self.datagrams_dropped_in_handoff = 0
        self.datagrams_forwarded = 0

    def send_datagram(self, datagram: Datagram) -> None:
        """Queue a datagram for this cell's radio."""
        self.queue.offer(datagram, datagram.size_bytes)
        self._drain()

    def _drain(self) -> None:
        """Transmit one datagram at a time, so the backlog stays in the
        (handoff-manageable) datagram queue rather than being dumped
        into the radio's frame queue."""
        if not self.attached or self._sending:
            return
        datagram = self.queue.poll()
        if datagram is None:
            return
        self._sending = True
        fragments = self.fragmenter.fragment(datagram)
        for fragment in fragments[:-1]:
            self.link.send(data_frame(fragment))
        self.link.send(data_frame(fragments[-1]), on_tx_complete=self._datagram_done)

    def _datagram_done(self, frame) -> None:
        self._sending = False
        self._drain()

    def attach(self) -> None:
        """The mobile host entered this cell: resume transmission."""
        self.attached = True
        self._drain()

    def detach(self) -> None:
        """The mobile host left: hold the queue."""
        self.attached = False

    def take_queue(self) -> List[Datagram]:
        """Remove and return all held datagrams (for forwarding)."""
        datagrams = list(self.queue)
        self.queue.clear()
        return datagrams

    def drop_queue(self) -> int:
        """Discard all held datagrams; returns how many."""
        dropped = self.queue.clear()
        self.datagrams_dropped_in_handoff += dropped
        return dropped


@dataclass
class HandoffResult:
    metrics: ConnectionMetrics
    completed: bool
    handoffs: int
    timeouts: int
    fast_retransmits: int
    datagrams_dropped_in_handoffs: int
    datagrams_forwarded: int
    #: Source-silent gaps longer than half the disconnect time — the
    #: post-handoff stalls [4] measured.
    stall_time_total: float


def run_handoff_scenario(
    config: HandoffConfig, wall_timeout: Optional[float] = None
) -> HandoffResult:
    """Run one transfer across periodic handoffs
    (``wall_timeout``: the engine's wall-clock watchdog)."""
    sim = Simulator()
    streams = RandomStreams(config.seed)

    fh, router, mh = Node("FH"), Node("R"), Node("MH")
    bs_nodes = {name: Node(name) for name in ("BS1", "BS2")}

    # Wired mesh.
    fh_r = WiredLink(sim, WIRED_BANDWIDTH_BPS, WIRED_PROP_DELAY, name="FH->R")
    r_fh = WiredLink(sim, WIRED_BANDWIDTH_BPS, WIRED_PROP_DELAY, name="R->FH")
    fh_r.connect(router.receive)
    r_fh.connect(fh.receive)
    fh.add_interface("wired", fh_r.send, "MH", "R")
    router.add_interface("up", r_fh.send, "FH")

    # Per-BS wired spurs and wireless cells (independent channels).
    ports: Dict[str, CellPort] = {}
    r_to_bs: Dict[str, WiredLink] = {}
    mh_uplinks: Dict[str, WirelessPort] = {}
    mh_reassembler = Reassembler(sim, timeout=30.0, name="mh")

    mh_attached_to: Dict[str, Optional[str]] = {"cell": None}

    def mh_receive_frame(frame, cell_name: str) -> None:
        if mh_attached_to["cell"] != cell_name:
            return  # out of range: the MH is not listening to this cell
        datagram = mh_reassembler.add(frame.fragment)
        if datagram is not None:
            mh.receive(datagram)

    for name in ("BS1", "BS2"):
        channel = markov_channel(
            GOOD_PERIOD_MEAN,
            BAD_PERIOD_MEAN,
            rng=streams.stream(f"errors-{name}"),
            sojourn_rng=streams.stream(f"sojourns-{name}"),
        )
        down = WirelessLink(sim, WIRELESS, channel, name=f"{name}->MH")
        up = WirelessLink(sim, WIRELESS, channel, name=f"MH->{name}")
        down.connect(lambda frame, cell=name: mh_receive_frame(frame, cell))
        # A PLAIN port fragments onto its link and reassembles what the
        # link delivers, so one port spans both ends of the uplink.
        mh_uplinks[name] = WirelessPort(
            sim, f"{name}.up", out_link=up, deliver=bs_nodes[name].receive
        )
        up.connect(mh_uplinks[name].receive_frame)

        ports[name] = CellPort(sim, name, down, WIRELESS.mtu_bytes)
        bs_nodes[name].add_interface("radio", ports[name].send_datagram, "MH")

        spur_down = WiredLink(sim, WIRED_BANDWIDTH_BPS, WIRED_PROP_DELAY, name=f"R->{name}")
        spur_up = WiredLink(sim, WIRED_BANDWIDTH_BPS, WIRED_PROP_DELAY, name=f"{name}->R")
        spur_down.connect(bs_nodes[name].receive)
        spur_up.connect(router.receive)
        bs_nodes[name].add_interface("wired", spur_up.send, "FH", "R", "BS1", "BS2")
        r_to_bs[name] = spur_down

    # The router forwards MH traffic toward the serving cell; during a
    # disconnection it keeps pointing at the *old* cell (binding
    # updates arrive only on reattachment), so packets sent during the
    # outage pile up at the old base station.
    route_state = {"target": "BS1"}
    router.routing.add_route("MH", lambda dg: r_to_bs[route_state["target"]].send(dg))
    router.routing.add_route("BS1", r_to_bs["BS1"].send)
    router.routing.add_route("BS2", r_to_bs["BS2"].send)

    # MH's uplink follows its attachment.
    def mh_send(datagram: Datagram) -> None:
        cell = mh_attached_to["cell"]
        if cell is None:
            return  # disconnected: ack lost
        mh_uplinks[cell].send_datagram(datagram)

    mh.add_interface("uplink", mh_send, "FH", "R")

    # Transport.
    from repro.metrics import PacketTrace

    trace = PacketTrace()
    sender = TahoeSender(
        sim,
        fh,
        "MH",
        config=TcpConfig(transfer_bytes=config.transfer_bytes),
        on_complete=sim.stop,
        trace=trace,
    )
    fh.attach_agent(sender)
    sink = TcpSink(sim, mh, "FH")
    mh.attach_agent(sink)

    # Handoff machinery.
    counters = {"handoffs": 0}
    forward_queue = config.scheme in (
        HandoffScheme.FORWARD,
        HandoffScheme.FAST_RTX_FORWARD,
    )
    force_fast_rtx = config.scheme in (
        HandoffScheme.FAST_RTX,
        HandoffScheme.FAST_RTX_FORWARD,
    )

    def flush_old_cell(old: str, new: str) -> None:
        """Dispose of datagrams stranded at the old base station."""
        if forward_queue:
            stranded = ports[old].take_queue()
            ports[old].datagrams_forwarded += len(stranded)
            # BS-to-BS forwarding crosses the wired mesh (two hops).
            for i, datagram in enumerate(stranded):
                delay = 2 * WIRED_PROP_DELAY + (i + 1) * (
                    datagram.size_bytes * 8 / WIRED_BANDWIDTH_BPS
                )
                sim.schedule(delay, ports[new].send_datagram, datagram)
        else:
            ports[old].drop_queue()

    def attach(cell: str) -> None:
        old = route_state["target"]
        mh_attached_to["cell"] = cell
        route_state["target"] = cell  # binding update reaches the router
        ports[cell].attach()
        if old != cell:
            # Anything that arrived at the old cell during the outage.
            flush_old_cell(old, cell)
        if force_fast_rtx and counters["handoffs"] > 0:
            # Caceres-Iftode: the MH re-sends its current cumulative
            # ACK three times, forcing the source's fast retransmit.
            for _ in range(3):
                ack = Datagram(
                    "MH", "FH", TcpAck(ack_seq=sink.next_expected), 40
                )
                mh.send(ack)

    def handoff() -> None:
        if sender.completed:
            return
        old = mh_attached_to["cell"]
        new = "BS2" if old == "BS1" else "BS1"
        counters["handoffs"] += 1
        mh_attached_to["cell"] = None
        ports[old].detach()
        flush_old_cell(old, new)
        sim.schedule(config.disconnect_time, attach, new)
        sim.schedule(config.handoff_interval, handoff)

    attach("BS1")
    sim.schedule(config.handoff_interval, handoff)
    sender.start()
    sim.run(until=MAX_SIM_TIME, wall_timeout=wall_timeout)

    metrics = compute_metrics(sender, sink)
    stall_threshold = max(0.5, 2 * config.disconnect_time)
    stalls = trace.idle_gaps(min_gap=stall_threshold)
    return HandoffResult(
        metrics=metrics,
        completed=sender.completed,
        handoffs=counters["handoffs"],
        timeouts=sender.stats.timeouts,
        fast_retransmits=sender.stats.fast_retransmits,
        datagrams_dropped_in_handoffs=sum(
            p.datagrams_dropped_in_handoff for p in ports.values()
        ),
        datagrams_forwarded=sum(p.datagrams_forwarded for p in ports.values()),
        stall_time_total=sum(b - a for a, b in stalls),
    )
