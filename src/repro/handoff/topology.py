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
from functools import partial
from typing import List, Optional

from repro.engine import MAX_SIM_TIME, Simulator
from repro.experiments.topology import Topology
from repro.metrics import ConnectionMetrics, compute_metrics
from repro.metrics.trace import PacketTrace
from repro.net.ip import Fragmenter, Reassembler
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
#: Every reassembler's timeout (s): the mobile host's, and each cell's
#: uplink port's.
REASSEMBLY_TIMEOUT = 30.0
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


class HandoffScenario(Topology):
    """The two-cell topology for one :class:`HandoffConfig`.

    ``cell`` is the base station the mobile host listens to (``None``
    during an outage); ``serving`` is the one the router sends its
    traffic to, which moves only when the host reattaches.
    """

    def __init__(self, config: HandoffConfig) -> None:
        super().__init__(config)
        sim = self.sim

        fh, self.router, self.mh = Node("FH"), Node("R"), Node("MH")

        # Wired mesh.
        mesh = partial(
            self.wired_pair, bandwidth=WIRED_BANDWIDTH_BPS, delay=WIRED_PROP_DELAY
        )
        mesh(fh, self.router, a_routes=("MH", "R"), b_routes=("FH",))

        # Per-BS wired spurs and wireless cells (independent channels),
        # keyed by BS.
        self.cells, self.up_ports, self.spurs_down = {}, {}, {}
        self.mh_reassembler = Reassembler(sim, timeout=REASSEMBLY_TIMEOUT, name="mh")
        self.cell: Optional[str] = None

        for name in ("BS1", "BS2"):
            bs = Node(name)
            channel = self.fading(name, GOOD_PERIOD_MEAN, BAD_PERIOD_MEAN)
            down = self.wireless_link(WIRELESS, channel, f"{name}->MH")
            down.connect(partial(self._mh_receive_frame, name))
            _, self.up_ports[name] = self.plain_uplink(
                WIRELESS, channel, f"MH->{name}", f"{name}.up", bs.receive,
                reassembly_timeout=REASSEMBLY_TIMEOUT,
            )

            self.cells[name] = CellPort(sim, name, down, WIRELESS.mtu_bytes)
            bs.add_interface(self.cells[name].send_datagram, "MH")

            self.spurs_down[name], _ = mesh(
                self.router, bs, a_routes=(name,), b_routes=("FH", "R", "BS1", "BS2")
            )

        # The router forwards MH traffic toward the serving cell; during a
        # disconnection it keeps pointing at the *old* cell (binding
        # updates arrive only on reattachment), so packets sent during the
        # outage pile up at the old base station.
        self.serving = "BS1"
        self.router.add_interface(self.spurs_down["BS1"].send, "MH")

        # MH's uplink follows its attachment.
        self.mh.add_interface(self._mh_send, "FH", "R")

        # Transport.
        self.trace = PacketTrace()
        self.sender = TahoeSender(
            sim,
            fh,
            "MH",
            config=TcpConfig(transfer_bytes=config.transfer_bytes),
            on_complete=sim.stop,
            trace=self.trace,
        )
        fh.attach_agent(self.sender)
        self.sink = TcpSink(sim, self.mh, "FH")
        self.mh.attach_agent(self.sink)
        self.connections.append((self.sender, self.sink))

        # Handoff machinery.
        self.handoffs = 0
        self._forward_queue = config.scheme in (
            HandoffScheme.FORWARD, HandoffScheme.FAST_RTX_FORWARD
        )
        self._force_fast_rtx = config.scheme in (
            HandoffScheme.FAST_RTX, HandoffScheme.FAST_RTX_FORWARD
        )

    def _mh_receive_frame(self, cell: str, frame) -> None:
        if self.cell != cell:
            return  # out of range: the MH is not listening to this cell
        datagram = self.mh_reassembler.add(frame.fragment)
        if datagram is not None:
            self.mh.receive(datagram)

    def _mh_send(self, datagram: Datagram) -> None:
        if self.cell is None:
            return  # disconnected: ack lost
        self.up_ports[self.cell].send_datagram(datagram)

    def _flush_old_cell(self, old: str, new: str) -> None:
        """Dispose of datagrams stranded at the old base station."""
        if self._forward_queue:
            stranded = self.cells[old].take_queue()
            self.cells[old].datagrams_forwarded += len(stranded)
            # BS-to-BS forwarding crosses the wired mesh (two hops).
            for i, datagram in enumerate(stranded):
                delay = 2 * WIRED_PROP_DELAY + (i + 1) * (
                    datagram.size_bytes * 8 / WIRED_BANDWIDTH_BPS
                )
                self.sim.schedule(delay, self.cells[new].send_datagram, datagram)
        else:
            self.cells[old].drop_queue()

    def _attach(self, cell: str) -> None:
        old = self.serving
        self.cell = cell
        # The binding update reaches the router.
        self.serving = cell
        self.router.add_interface(self.spurs_down[cell].send, "MH")
        self.cells[cell].attach()
        if old != cell:
            # Anything that arrived at the old cell during the outage.
            self._flush_old_cell(old, cell)
        if self._force_fast_rtx and self.handoffs > 0:
            # Caceres-Iftode: the MH re-sends its current cumulative
            # ACK three times, forcing the source's fast retransmit.
            for _ in range(3):
                ack = Datagram(
                    "MH", "FH", TcpAck(ack_seq=self.sink.next_expected), 40
                )
                self.mh.send(ack)

    def _handoff(self) -> None:
        if self.sender.completed:
            return
        old = self.cell
        new = "BS2" if old == "BS1" else "BS1"
        self.handoffs += 1
        self.cell = None
        self.cells[old].detach()
        self._flush_old_cell(old, new)
        self.sim.schedule(self.config.disconnect_time, self._attach, new)
        self.sim.schedule(self.config.handoff_interval, self._handoff)

    def run(self, wall_timeout: Optional[float] = None) -> HandoffResult:
        """Run the transfer across periodic handoffs
        (``wall_timeout``: the engine's wall-clock watchdog)."""
        self._attach("BS1")
        self.sim.schedule(self.config.handoff_interval, self._handoff)
        self.sender.start()
        self.sim.run(until=MAX_SIM_TIME, wall_timeout=wall_timeout)

        stall_threshold = max(0.5, 2 * self.config.disconnect_time)
        stalls = self.trace.idle_gaps(min_gap=stall_threshold)
        return HandoffResult(
            metrics=compute_metrics(self.sender, self.sink),
            completed=self.sender.completed,
            handoffs=self.handoffs,
            timeouts=self.sender.stats.timeouts,
            fast_retransmits=self.sender.stats.fast_retransmits,
            datagrams_dropped_in_handoffs=sum(
                c.datagrams_dropped_in_handoff for c in self.cells.values()
            ),
            datagrams_forwarded=sum(c.datagrams_forwarded for c in self.cells.values()),
            stall_time_total=sum(b - a for a, b in stalls),
        )


def run_handoff_scenario(config: HandoffConfig) -> HandoffResult:
    """Run one transfer across periodic handoffs, validated as
    :meth:`~repro.experiments.topology.Topology.simulate` says."""
    return HandoffScenario.simulate(config)
