"""The paper's simulation setup (Fig. 2), for every scheme.

A :class:`Scenario` wires the three-node chain

    FH (TCP source) --- wired --- BS --- wireless --- MH (TCP sink)

with the requested recovery scheme and runs one bulk transfer to
completion, returning a :class:`ScenarioResult` with the connection
metrics, the source packet trace, and all component statistics.

Every topology a campaign runs, the studies' too, derives from
:class:`Topology`: it owns the simulator, the seeded streams, the
connections and ports the invariant checkers watch, the parts every
topology wires the same way, and the one path that builds, runs and
summarizes a config (:meth:`Topology.simulate`).
"""

from __future__ import annotations

import enum
import gc
import time
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.channel import deterministic_channel, markov_channel
from repro.core.ebsn import EbsnGenerator, install_ebsn_handler
from repro.engine import MAX_SIM_TIME, RandomStreams, Simulator
from repro.linklayer import ArqConfig, LinkLayerMode, WirelessPort
from repro.metrics import ConnectionMetrics, compute_metrics
from repro.metrics.theoretical import theoretical_throughput_bps
from repro.net.link import WiredLink
from repro.net.node import Node
from repro.net.wireless import WirelessLink, WirelessLinkConfig
from repro.tcp import TahoeSender, TcpConfig, TcpSink

if TYPE_CHECKING:
    # The other schemes, senders and the trace load where a run builds
    # them (Scenario.__init__), so a Tahoe/EBSN run never compiles them.
    from repro.core.quench import QuenchGenerator
    from repro.core.snoop import SnoopAgent
    from repro.core.split import SplitRelay
    from repro.metrics.trace import PacketTrace


class Scheme(enum.Enum):
    """The recovery schemes the paper compares."""

    BASIC = "basic"  # TCP Tahoe end to end, nothing else (Fig 3)
    LOCAL_RECOVERY = "local_recovery"  # + link-layer ARQ (Fig 4)
    EBSN = "ebsn"  # + ARQ + explicit bad state notification (Fig 5)
    QUENCH = "quench"  # + ARQ + ICMP source quench (§4.2.2)
    SNOOP = "snoop"  # snoop-style agent at the BS (§2 baseline)
    SPLIT = "split"  # I-TCP style split connection (§2 baseline)


@dataclass
class ChannelConfig:
    """Burst-error model parameters (§3.1)."""

    good_period_mean: float = 10.0
    bad_period_mean: float = 1.0
    ber_good: float = 1e-6
    ber_bad: float = 1e-2
    #: Frozen sojourns + deterministic corruption (the Figs 3–5 example).
    deterministic: bool = False
    #: Replace the burst process with i.i.d. per-frame loss of the
    #: same average rate (the snoop-friendly regime; §2 comparison).
    uniform: bool = False

    def build(self, streams: RandomStreams):
        """Construct the configured channel from seeded substreams."""
        if self.uniform:
            if self.deterministic:
                raise ValueError("uniform and deterministic are exclusive")
            from repro.channel.bernoulli import (
                BernoulliLossChannel,
                matched_loss_probability,
            )

            return BernoulliLossChannel(
                matched_loss_probability(
                    self.good_period_mean,
                    self.bad_period_mean,
                    ber_good=self.ber_good,
                    ber_bad=self.ber_bad,
                ),
                rng=streams.stream("channel-errors"),
            )
        if self.deterministic:
            return deterministic_channel(
                self.good_period_mean,
                self.bad_period_mean,
                ber_good=self.ber_good,
                ber_bad=self.ber_bad,
            )
        return markov_channel(
            self.good_period_mean,
            self.bad_period_mean,
            rng=streams.stream("channel-errors"),
            sojourn_rng=streams.stream("channel-sojourns"),
            ber_good=self.ber_good,
            ber_bad=self.ber_bad,
        )


@dataclass
class ScenarioConfig:
    """Everything needed to build and run one connection."""

    scheme: Scheme = Scheme.BASIC
    tcp: TcpConfig = field(default_factory=TcpConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    wireless: WirelessLinkConfig = field(default_factory=WirelessLinkConfig)
    #: The FH<->BS wired hop: the paper's WAN link (56 kbps, 10 ms).
    wired_bandwidth_bps: float = 56_000.0
    wired_prop_delay: float = 0.01
    arq: Optional[ArqConfig] = None  # None = derive from link parameters
    tcp_variant: str = "tahoe"  # or "reno" / "newreno"
    seed: int = 1
    record_trace: bool = True
    record_cwnd: bool = False
    #: Override the sender class (e.g. MessageSender for interactive
    #: workloads); receives the same constructor arguments the
    #: tcp_variant classes do.  None = use ``tcp_variant``.
    sender_factory: Optional[type] = None

    #: EBSN heartbeat interval (s) between ARQ attempts while the link
    #: fails: none, per-attempt only (the paper).  Not a field; the
    #: interactive study's config has one.
    ebsn_heartbeat = None

    def derived_arq(self) -> ArqConfig:
        """The configured ARQ, or one timed to the wireless link
        (:meth:`~repro.linklayer.ArqConfig.for_link`)."""
        if self.arq is not None:
            return self.arq
        return ArqConfig.for_link(self.wireless)


class ScenarioDefaults:
    """What :class:`Scenario` reads beyond a study config's own fields,
    at the Fig. 2 defaults: one Tahoe bulk transfer with ARQ derived
    from the link, no trace.  A study's config dataclass inherits these
    as plain class attributes, so they are not its fields."""

    channel = ChannelConfig()
    wireless = WirelessLinkConfig()
    wired_bandwidth_bps = ScenarioConfig.wired_bandwidth_bps
    wired_prop_delay = ScenarioConfig.wired_prop_delay
    arq = None
    tcp_variant = "tahoe"
    sender_factory = None
    ebsn_heartbeat = None
    record_trace = False
    record_cwnd = False
    derived_arq = ScenarioConfig.derived_arq


@dataclass
class ScenarioResult:
    """Output of one scenario run."""

    metrics: ConnectionMetrics
    completed: bool
    trace: Optional[PacketTrace]
    config: ScenarioConfig
    #: Theoretical maximum throughput under this error condition (bps).
    tput_th_bps: float
    sender: TahoeSender
    sink: TcpSink
    downlink: WirelessLink
    uplink: WirelessLink
    bs_port: WirelessPort
    mh_port: WirelessPort
    ebsn: Optional[EbsnGenerator] = None
    quench: Optional[QuenchGenerator] = None
    snoop: Optional[SnoopAgent] = None
    split: Optional[SplitRelay] = None


class _Reclaimer:
    """Frees finished runs' graphs before a topology is built.

    A run's graph is cyclic (routes and links hold each other's bound
    methods, timers their owners, heap entries their callbacks), so only
    the cycle collector frees it, and a process running unit after unit
    rarely gets that far.  Collecting the young generations before a
    build frees the previous run's graph.  A graph that survives that
    collection, because the caller still holds its result or because
    the run was long enough for the automatic collector to promote part
    of it, now sits in the old generation, which these collections keep
    the automatic collector from reaching.  So once a build sees the
    previous run's simulator survive, a later build collects every
    generation; to bound what that costs in a large process, not before
    the process has spent ``FULL_COST_RATIO`` times the last full
    collection's CPU time since it.
    """

    FULL_COST_RATIO = 32

    def __init__(self) -> None:
        self.last_sim: Optional[weakref.ref] = None
        self.survived = False
        self.full_end = self.full_cost = 0.0

    def before_build(self) -> None:
        """Collect; must run before the new graph's first allocation:
        collecting any later would promote the half-built topology to
        the old generation, where its own cycles would outlive it."""
        start = time.process_time()
        if self.survived and start - self.full_end > self.FULL_COST_RATIO * self.full_cost:
            gc.collect()
            self.full_end = time.process_time()
            self.full_cost = self.full_end - start
            self.survived = False
        else:
            gc.collect(1)
        if self.last_sim is not None and self.last_sim() is not None:
            self.survived = True

    def built(self, sim: Simulator) -> None:
        """Watch the new topology's simulator, which its graph holds."""
        self.last_sim = weakref.ref(sim)


_reclaimer = _Reclaimer()


class Topology:
    """The base of every topology a campaign runs: the simulator, the
    streams seeded by ``config.seed``, the ``connections`` (sender,
    sink) and wireless ``ports`` the invariant checkers watch, and the
    parts every topology wires the same way.  A subclass defines
    ``run(wall_timeout)``, and ``outcome`` where its campaign summary
    is not the run's result."""

    def __new__(cls, *args, **kwargs):
        _reclaimer.before_build()
        return super().__new__(cls)

    def __init__(self, config) -> None:
        self.config = config
        self.sim = Simulator()
        _reclaimer.built(self.sim)
        self.streams = RandomStreams(config.seed)
        self.connections: List[Tuple[TahoeSender, TcpSink]] = []
        self.ports: List[WirelessPort] = []

    @classmethod
    def simulate(cls, config, validate=None, bundle_dir=None, wall_timeout=None):
        """Build the topology for ``config``, run it and return its
        :meth:`outcome`.

        ``validate=True`` runs under the invariant engine
        (:mod:`repro.validate`): conservation, TCP state legality, ARQ
        attempt bounds, EBSN's no-window-action contract, and timer
        sanity are checked online, and a violation aborts the run with
        a replay bundle written to ``bundle_dir`` (default: the bundle
        directory; ``False`` suppresses the bundle).  ``validate=None``
        consults the process default — off, unless the test suite or
        ``REPRO_VALIDATE`` turned it on.  Checkers are pure observers,
        so validated runs are bit-identical to unvalidated ones.
        ``wall_timeout`` bounds the run in wall-clock seconds (the
        engine watchdog), so a campaign can kill hung units.
        """
        # Imported lazily: repro.validate pulls in the bundle/cache
        # layers, which this module's import-time dependencies must not
        # require.
        from repro.validate.engine import run_validated, validation_default

        topology = cls(config)
        if validate is None:
            validate = validation_default()
        if validate:
            result = run_validated(topology, bundle_dir=bundle_dir, wall_timeout=wall_timeout)
        else:
            result = topology.run(wall_timeout=wall_timeout)
        return topology.outcome(result)

    def outcome(self, result):
        """The campaign summary of a finished run: its result."""
        return result

    def wired_pair(self, a: Node, b: Node, bandwidth: float, delay: float,
                   a_routes, b_routes, queue_capacity=None, ecn_threshold=None):
        """The one-way links ``A->B`` and ``B->A``, each delivering to
        the far node; ``a`` routes ``a_routes`` over the first, ``b``
        routes ``b_routes`` over the second.  The queue options apply
        to ``A->B``."""
        forward = WiredLink(
            self.sim, bandwidth, delay, queue_capacity=queue_capacity,
            ecn_threshold=ecn_threshold, name=f"{a.name}->{b.name}",
        )
        reverse = WiredLink(self.sim, bandwidth, delay, name=f"{b.name}->{a.name}")
        forward.connect(b.receive)
        reverse.connect(a.receive)
        a.add_interface(forward.send, *a_routes)
        b.add_interface(reverse.send, *b_routes)
        return forward, reverse

    def fading(self, name: str, good: float, bad: float):
        """A burst-error channel with mean ``good`` and ``bad`` periods,
        on the ``errors-<name>`` and ``sojourns-<name>`` streams."""
        streams = self.streams
        return markov_channel(good, bad, rng=streams.stream(f"errors-{name}"),
                              sojourn_rng=streams.stream(f"sojourns-{name}"))

    def plain_uplink(self, wireless: WirelessLinkConfig, channel, name: str,
                     port_name: str, deliver, reassembly_timeout: float):
        """A wireless link ``name`` under a PLAIN port ``port_name``,
        which is added to ``ports``; returns both.  A PLAIN port
        fragments onto its link and reassembles what the link delivers,
        so one port spans both ends."""
        link = WirelessLink(self.sim, wireless, channel, name=name)
        port = WirelessPort(self.sim, port_name, out_link=link, deliver=deliver,
                            reassembly_timeout=reassembly_timeout)
        link.connect(port.receive_frame)
        self.ports.append(port)
        return link, port


class Scenario(Topology):
    """Builds the Fig. 2 topology for a config and runs it."""

    def __init__(self, config: ScenarioConfig) -> None:
        super().__init__(config)
        self.channel = config.channel.build(self.streams)

        self.fh = Node("FH")
        self.bs = Node("BS")
        self.mh = Node("MH")

        self._build_wired()

        # Wireless hop; both directions share the fading channel.
        self.downlink = WirelessLink(self.sim, config.wireless, self.channel, name="BS->MH")
        self.uplink = WirelessLink(self.sim, config.wireless, self.channel, name="MH->BS")

        arq = config.derived_arq()
        mode = (
            LinkLayerMode.PLAIN
            if config.scheme in (Scheme.BASIC, Scheme.SNOOP, Scheme.SPLIT)
            else LinkLayerMode.ARQ
        )

        # Scheme-specific feedback at the base station.
        self.ebsn_generator: Optional[EbsnGenerator] = None
        self.quench_generator: Optional[QuenchGenerator] = None
        self.snoop_agent: Optional[SnoopAgent] = None
        self.split_relay: Optional[SplitRelay] = None
        feedback = None
        if config.scheme is Scheme.EBSN:
            self.ebsn_generator = EbsnGenerator(
                self.bs,
                sim=self.sim,
                heartbeat_interval=config.ebsn_heartbeat,
            )
            feedback = self.ebsn_generator
        elif config.scheme is Scheme.QUENCH:
            from repro.core.quench import QuenchGenerator

            self.quench_generator = QuenchGenerator(self.sim, self.bs)
            feedback = self.quench_generator

        self.bs_port = WirelessPort(
            self.sim,
            "BS.wl",
            out_link=self.downlink,
            deliver=self.bs.receive,
            mode=mode,
            arq_config=arq,
            rng=self.streams.stream("bs-arq"),
            feedback=feedback,
        )
        self.mh_port = WirelessPort(
            self.sim,
            "MH.wl",
            out_link=self.uplink,
            deliver=self.mh.receive,
            mode=mode,
            arq_config=arq,
            rng=self.streams.stream("mh-arq"),
        )
        self.downlink.connect(self.mh_port.receive_frame)
        self.uplink.connect(self.bs_port.receive_frame)

        self.bs.add_interface(self.bs_port.send_datagram, "MH")
        self.mh.add_interface(self.mh_port.send_datagram, "FH", "BS")

        # Transport.  For a split connection the fixed host's sender
        # finishes early (the relay ACKs on arrival at the BS), so the
        # run ends when the *sink* has all the data.
        is_split = config.scheme is Scheme.SPLIT
        relay_packet_size, relayed_bytes = self._relayed()
        self.trace = None
        if config.record_trace:
            from repro.metrics.trace import PacketTrace

            self.trace = PacketTrace()
        if config.sender_factory is not None:
            sender_cls = config.sender_factory
        elif config.tcp_variant == "tahoe":
            sender_cls = TahoeSender
        elif config.tcp_variant == "reno":
            from repro.tcp.reno import RenoSender as sender_cls
        elif config.tcp_variant == "newreno":
            from repro.tcp.newreno import NewRenoSender as sender_cls
        else:
            raise KeyError(config.tcp_variant)
        self.sender = sender_cls(
            self.sim,
            self.fh,
            "MH",
            config=config.tcp,
            trace=self.trace,
            on_complete=None if is_split else self.sim.stop,
            record_cwnd=config.record_cwnd,
        )
        self.fh.attach_agent(self.sender)
        self.sink = TcpSink(
            self.sim,
            self.mh,
            "BS" if is_split else "FH",
            expected_bytes=relayed_bytes if is_split else None,
            on_complete=self.sim.stop if is_split else None,
        )
        self.mh.attach_agent(self.sink)

        if config.scheme is Scheme.EBSN:
            install_ebsn_handler(self.sender)
        elif config.scheme is Scheme.QUENCH:
            from repro.core.quench import install_quench_handler

            install_quench_handler(self.sender)
            # Data for the MH passes the generator on its way to the
            # port, so a deep queue is blamed on the source feeding it.
            self.quench_generator.send_wireless = self.bs_port.send_datagram
            self.bs.add_interface(self.quench_generator.on_wired_data, "MH")
        elif config.scheme is Scheme.SNOOP:
            from repro.core.snoop import SnoopAgent

            frame_time = self.downlink.tx_time(config.wireless.mtu_bytes)
            self.snoop_agent = SnoopAgent(
                self.sim,
                send_wireless=self.bs_port.send_datagram,
                send_wired=self.bs.routing.forward,
                local_timeout=max(0.1, 8 * frame_time),
            )
            self.bs.add_interface(self.snoop_agent.on_wired_data, "MH")
            self.bs_port.deliver = self.snoop_agent.on_wireless_ack
        elif config.scheme is Scheme.SPLIT:
            from repro.core.split import SplitRelay

            self.split_relay = SplitRelay(
                self.sim,
                self.bs,
                wired_peer="FH",
                mobile="MH",
                wireless_packet_size=relay_packet_size,
                window_bytes=config.tcp.window_bytes,
                transfer_bytes=relayed_bytes,
                clock_granularity=config.tcp.clock_granularity,
            )
            self.bs.attach_agent(self.split_relay)
            # Only the FH's data for the MH crosses the wired hop into
            # the BS; the relay terminates it.
            self.wired_down.connect(self.split_relay.on_wired_data)
        self.connections.append((self.sender, self.sink))
        self.ports += [self.bs_port, self.mh_port]

    def _relayed(self) -> Tuple[int, int]:
        """What a split connection's relay sends the MH: its packet
        size, and the bytes after which it closes its stream and the
        MH's sink completes the run."""
        return self.config.tcp.packet_size, self.config.tcp.transfer_bytes

    def _build_wired(self) -> None:
        """Wire the FH<->BS hop: the one override point for a study's
        wired side.

        It must set ``wired_down`` (the link delivering into the BS,
        connected to ``bs.receive``; a split relay reconnects it) and
        ``wired_up`` (the link leaving it), route FH's traffic for MH
        and BS toward the BS, and route the BS's traffic for FH.  Here
        it is one :meth:`wired_pair`.
        """
        config = self.config
        self.wired_down, self.wired_up = self.wired_pair(
            self.fh, self.bs, config.wired_bandwidth_bps, config.wired_prop_delay,
            ("MH", "BS"), ("FH",),
        )

    # -- running ----------------------------------------------------------

    def run(self, wall_timeout: Optional[float] = None) -> ScenarioResult:
        """Run the transfer to completion (or the abort horizon).

        ``wall_timeout`` arms the engine's real-time watchdog: a hung
        or runaway run aborts with
        :class:`~repro.engine.simulator.WallClockExceeded` instead of
        spinning until the simulated-time horizon.
        """
        self.sender.start()
        self.sim.run(until=MAX_SIM_TIME, wall_timeout=wall_timeout)
        if self.split_relay is not None:
            completed = self.sink.completed
        else:
            completed = self.sender.completed
        metrics = compute_metrics(
            self.sender,
            self.sink,
            end_at=self.sink.stats.last_data_at if self.split_relay else None,
        )
        tput_th = theoretical_throughput_bps(
            self.config.wireless.effective_bandwidth_bps,
            self.config.channel.good_period_mean,
            self.config.channel.bad_period_mean,
        )
        return ScenarioResult(
            metrics=metrics,
            completed=completed,
            trace=self.trace,
            config=self.config,
            tput_th_bps=tput_th,
            sender=self.sender,
            sink=self.sink,
            downlink=self.downlink,
            uplink=self.uplink,
            bs_port=self.bs_port,
            mh_port=self.mh_port,
            ebsn=self.ebsn_generator,
            quench=self.quench_generator,
            snoop=self.snoop_agent,
            split=self.split_relay,
        )


def run_scenario(
    config: ScenarioConfig,
    validate: "Optional[bool]" = None,
    bundle_dir=None,
    wall_timeout: Optional[float] = None,
) -> ScenarioResult:
    """Build and run one scenario, validated as
    :meth:`Topology.simulate` says."""
    return Scenario.simulate(config, validate, bundle_dir, wall_timeout)
