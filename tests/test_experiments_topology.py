"""Unit tests for the scenario builder's wiring and config plumbing."""

from __future__ import annotations

import gc
import time
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.experiments import topology
from repro.experiments.config import lan_scenario, wan_scenario
from repro.experiments.congestion import CongestedScenario, CongestedScenarioConfig
from repro.experiments.parallel import run_unit, summarize, topology_of
from repro.experiments.topology import (
    ChannelConfig,
    Scenario,
    ScenarioConfig,
    Scheme,
    Topology,
)
from repro.linklayer import ArqConfig, LinkLayerMode
from repro.net.node import Node
from repro.net.packet import Datagram, TcpAck
from repro.net.wireless import WirelessLinkConfig
from tests.test_experiments_parallel import _registered_configs


class TestDerivedArq:
    def test_wan_defaults(self):
        config = wan_scenario()
        arq = config.derived_arq()
        assert arq.rtmax == 13
        # Frame time for a 128 B fragment is 80 ms; backoff spans
        # [2.5, 7.5] frame times.
        assert arq.backoff_min == pytest.approx(0.2)
        assert arq.backoff_max == pytest.approx(0.6)
        # ack timeout covers round trip + ACK airtime + reverse MTU.
        assert arq.ack_timeout > 0.09

    def test_explicit_arq_passes_through(self):
        custom = ArqConfig(ack_timeout=0.5, rtmax=3)
        config = replace(wan_scenario(), arq=custom)
        assert config.derived_arq() is custom

    def test_lan_uses_its_own_arq(self):
        config = lan_scenario()
        assert config.arq is not None
        assert config.derived_arq().rtmax == 150


class TestSchemeWiring:
    def build(self, scheme):
        return Scenario(wan_scenario(scheme=scheme, transfer_bytes=5 * 1024))

    def test_basic_is_plain_no_feedback(self):
        s = self.build(Scheme.BASIC)
        assert s.bs_port.mode is LinkLayerMode.PLAIN
        assert s.ebsn_generator is None
        assert s.sender.icmp_handler is None

    def test_local_recovery_is_arq(self):
        s = self.build(Scheme.LOCAL_RECOVERY)
        assert s.bs_port.mode is LinkLayerMode.ARQ
        assert s.mh_port.mode is LinkLayerMode.ARQ
        assert s.ebsn_generator is None

    def test_ebsn_wiring(self):
        s = self.build(Scheme.EBSN)
        assert s.bs_port.mode is LinkLayerMode.ARQ
        assert s.bs_port.feedback is s.ebsn_generator
        assert s.sender.icmp_handler is not None

    def test_quench_wiring(self):
        s = self.build(Scheme.QUENCH)
        assert s.quench_generator is not None
        assert s.bs_port.feedback is s.quench_generator

    def test_snoop_wiring(self):
        s = self.build(Scheme.SNOOP)
        assert s.snoop_agent is not None
        assert s.bs_port.mode is LinkLayerMode.PLAIN

    def test_split_wiring(self):
        s = self.build(Scheme.SPLIT)
        assert s.split_relay is not None
        assert s.bs.agent is s.split_relay
        assert s.sink.src == "BS"

    def test_links_share_one_channel(self):
        s = self.build(Scheme.BASIC)
        assert s.downlink.channel is s.uplink.channel

    # Where the base station hands a datagram on: what the wired hop
    # into it delivers to, what its wireless port delivers to, and its
    # route to the MH.  Without an agent on the forwarding path the BS
    # forwards directly; each agent takes only the entries it handles.

    @staticmethod
    def bs_forwarding(s):
        return (s.wired_down._receiver, s.bs_port.deliver, s.bs.routing._routes["MH"])

    @pytest.mark.parametrize(
        "scheme", [Scheme.BASIC, Scheme.LOCAL_RECOVERY, Scheme.EBSN], ids=lambda s: s.value
    )
    def test_base_station_forwards_directly(self, scheme):
        s = self.build(scheme)
        assert self.bs_forwarding(s) == (s.bs.receive, s.bs.receive, s.bs_port.send_datagram)

    def test_congested_base_station_forwards_directly(self):
        s = CongestedScenario(CongestedScenarioConfig(scheme=Scheme.EBSN, ecn=True))
        assert self.bs_forwarding(s) == (s.bs.receive, s.bs.receive, s.bs_port.send_datagram)

    def test_snoop_takes_the_route_to_the_mh_and_the_uplink(self):
        s = self.build(Scheme.SNOOP)
        agent = s.snoop_agent
        assert self.bs_forwarding(s) == (
            s.bs.receive, agent.on_wireless_ack, agent.on_wired_data
        )

    def test_split_relay_takes_the_wired_hop(self):
        s = self.build(Scheme.SPLIT)
        assert self.bs_forwarding(s) == (
            s.split_relay.on_wired_data, s.bs.receive, s.bs_port.send_datagram
        )

    def test_quench_takes_the_route_to_the_mh(self):
        s = self.build(Scheme.QUENCH)
        generator = s.quench_generator
        assert self.bs_forwarding(s) == (s.bs.receive, s.bs.receive, generator.on_wired_data)
        assert generator.send_wireless == s.bs_port.send_datagram


class TestChannelConfig:
    def test_deterministic_build(self, streams):
        channel = ChannelConfig(deterministic=True, good_period_mean=2.0,
                                bad_period_mean=1.0).build(streams)
        assert channel.deterministic_errors

    def test_stochastic_build(self, streams):
        channel = ChannelConfig(good_period_mean=2.0, bad_period_mean=1.0).build(
            streams
        )
        assert not channel.deterministic_errors

    def test_unknown_variant_rejected(self):
        config = wan_scenario(transfer_bytes=1024)
        with pytest.raises(KeyError):
            Scenario(replace(config, tcp_variant="vegas"))


class TestResultSurface:
    def test_result_exposes_components(self):
        from repro.experiments.topology import run_scenario

        result = run_scenario(wan_scenario(transfer_bytes=5 * 1024))
        assert result.tput_th_bps == pytest.approx(11_636, abs=1)
        assert result.downlink.stats.transmitted > 0
        assert result.config.scheme is Scheme.BASIC
        assert result.trace is not None


class TestTopologyBase:
    def build(self):
        return Topology(ScenarioConfig())

    def test_wired_pair_joins_two_nodes(self):
        t = self.build()
        a, b = Node("A"), Node("B")
        at_a, at_b = [], []
        a.attach_agent(SimpleNamespace(receive=at_a.append))
        b.attach_agent(SimpleNamespace(receive=at_b.append))
        forward, reverse = t.wired_pair(
            a, b, 64_000, 0.01, ("B", "X"), ("A",), queue_capacity=3, ecn_threshold=2
        )
        assert (forward.name, reverse.name) == ("A->B", "B->A")
        assert a.routing._routes == {"B": forward.send, "X": forward.send}
        assert b.routing._routes == {"A": reverse.send}
        assert (forward.queue.capacity, forward.ecn_threshold) == (3, 2)
        assert (reverse.queue.capacity, reverse.ecn_threshold) == (None, None)
        a.send(Datagram("A", "B", TcpAck(0), 40))
        b.send(Datagram("B", "A", TcpAck(1), 40))
        t.sim.run()
        assert [d.payload.ack_seq for d in at_b] == [0]
        assert [d.payload.ack_seq for d in at_a] == [1]

    def test_plain_uplink_registers_its_port(self):
        t = self.build()
        channel = t.fading("MH", 4.0, 1.0)
        link, port = t.plain_uplink(
            WirelessLinkConfig(), channel, "MH->BS", "up", [].append,
            reassembly_timeout=5.0,
        )
        assert t.ports == [port]
        assert (link.name, link.channel) == ("MH->BS", channel)
        assert port.out_link is link and port.mode is LinkLayerMode.PLAIN
        assert link._receiver == port.receive_frame

    @pytest.mark.parametrize(
        "config", _registered_configs(), ids=lambda c: type(c).__name__
    )
    def test_simulate_matches_run_unit(self, config):
        """``simulate`` is the path every campaign unit takes."""
        built_on = topology_of(config)
        outcome = built_on.simulate(config)
        if built_on is Scenario:
            outcome = summarize(outcome)
        assert repr(outcome) == repr(run_unit(config))


class TestRunGraphReclaim:
    """A finished run's graph is cyclic; building the next topology
    frees it.  Automatic collection is off in these tests, so only the
    build's own collection can free anything."""

    @pytest.fixture(autouse=True)
    def no_automatic_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(
        "config", _registered_configs(), ids=lambda c: type(c).__name__
    )
    def test_next_build_frees_the_finished_run(self, config):
        built_on = topology_of(config)
        sims = []

        class Watched(built_on):
            def __init__(self, config):
                super().__init__(config)
                sims.append(weakref.ref(self.sim))

        outcome = Watched.simulate(config)
        del outcome
        assert sims[0]() is not None  # only the cycle collector frees it
        built_on(config)
        assert sims[0]() is None

    def test_a_held_result_stays_readable(self):
        config = wan_scenario(transfer_bytes=5 * 1024)

        def counters(result):
            return repr((result.sender.stats, result.sink.stats,
                         result.downlink.stats, result.uplink.stats))

        result = Scenario(config).run()
        before = counters(result)
        Scenario(config)
        assert counters(result) == before
        assert result.sender.stats.segments_sent > 0

    def test_a_graph_held_across_a_build_is_freed_once_affordable(self, monkeypatch):
        """A graph still held at the next build survives its collection;
        a later build collects every generation, but not before the
        process has spent enough time since the last full collection."""
        reclaimer = topology._reclaimer
        monkeypatch.setattr(reclaimer, "full_end", time.process_time())
        monkeypatch.setattr(reclaimer, "full_cost", 3600.0)
        config = wan_scenario(transfer_bytes=5 * 1024)
        result = Scenario(config).run()
        first = weakref.ref(result.sender._sim)
        result = Scenario(config).run()
        Scenario(config)
        assert first() is not None
        monkeypatch.setattr(reclaimer, "full_cost", 0.0)
        Scenario(config)
        assert first() is None

    def test_repeated_runs_strand_nothing(self):
        config = wan_scenario(transfer_bytes=5 * 1024)
        sizes = []
        tracemalloc.start()
        try:
            for _ in range(12):
                Scenario(config).run()
                sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        growth = max(sizes[1:]) - min(sizes[1:])
        assert growth < 64 * 1024, sizes
