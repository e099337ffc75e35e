"""Pins on what every campaign simulates and on the link times derived
from the paper's numbers.

* **Config digests.**  ``config_digest(config, code_token=CODE)``
  hashes a config's field values and nothing else, so one digest per
  table spec, claim and perfbench workload (the digests of its points,
  in order, hashed together) fixes every number a campaign reads.  A
  refactor of where those numbers are defined must leave all of them
  unchanged.
* **Derived link times.**  The ARQ parameters each link derives, the
  shared radio's turnaround, a frame's airtime, tput_th and the
  packet-size advisor's model, as exact floats: a change that moves
  any of them by one ulp shows here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.packet_size import ErrorCondition, PacketSizeAdvisor
from repro.csdp.radio import DownlinkRadio
from repro.csdp.scheduling import FifoScheduler
from repro.csdp.study import WIRELESS as CSDP_WIRELESS, CsdpStudyConfig
from repro.engine import Simulator
from repro.experiments.cache import config_digest
from repro.experiments.claims import CLAIMS
from repro.experiments.config import (
    LAN_BAD_PERIODS,
    WAN_BAD_PERIODS,
    WAN_PACKET_SIZES,
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.congestion import CongestedScenarioConfig
from repro.experiments.figures import lan_theoretical_mbps, wan_theoretical_kbps
from repro.experiments.points import wan_point
from repro.experiments.tables import TABLES
from repro.experiments.topology import ScenarioConfig, Scheme
from repro.handoff.topology import HandoffConfig, HandoffScheme
from repro.net.wireless import WirelessLink, WirelessLinkConfig

#: A fixed code token, so a digest depends on the config alone.
CODE = "config-pins"


def _digest(points) -> str:
    """One digest over ``(key, config)`` pairs, in order."""
    h = hashlib.sha256()
    for key, config in points:
        h.update(f"{key!r}={config_digest(config, code_token=CODE)}\n".encode())
    return h.hexdigest()[:16]


def _workloads():
    """The configs of perfbench's four workloads, as each pass builds them."""
    return {
        "fig8-pool": [
            ((bad, size), wan_point(100 * 1024, Scheme.EBSN, size, bad))
            for bad in WAN_BAD_PERIODS
            for size in WAN_PACKET_SIZES
        ],
        "lan-serial": [
            ((s, bad), lan_scenario(scheme=s, bad_period_mean=bad))
            for s in (Scheme.BASIC, Scheme.EBSN)
            for bad in LAN_BAD_PERIODS
        ],
        "wan-observed": [
            ((s, rep), wan_scenario(
                scheme=s, packet_size=576, bad_period_mean=2.0, seed=rep,
                record_trace=False,
            ))
            for s in Scheme
            for rep in range(1, 5)
        ],
        "studies-mix": (
            [(s, HandoffConfig(scheme=s)) for s in HandoffScheme]
            + [(n, CsdpStudyConfig(scheduler=n)) for n in ("fifo", "rr", "csdp")]
            + [
                ((s, ecn), CongestedScenarioConfig(scheme=s, ecn=ecn, cross_load=0.9))
                for s in (Scheme.BASIC, Scheme.EBSN)
                for ecn in (False, True)
            ]
        ),
        "trace-example": [
            (s, trace_example_scenario(s))
            for s in (Scheme.BASIC, Scheme.LOCAL_RECOVERY, Scheme.EBSN)
        ],
    }


#: Every table spec at scale 1.0 (10 replications), by name.
TABLE_DIGESTS = {
    "fig7_wan_basic": "24d4b2aa97bc0e87",
    "fig8_wan_ebsn": "9557049364c5ebd6",
    "fig9_wan_retx": "78efb54dc9f8db32",
    "fig10_lan_tput": "c608aaf04752d574",
    "fig11_lan_retx": "c608aaf04752d574",
    "quench_negative": "eb529e6a1ec6360c",
    "snoop_vs_ebsn": "d0f8358d20041ee1",
    "csdp_scheduling": "0590c7dfcfffb856",
    "congestion_ecn_ebsn": "a15883c594f410a9",
    "handoff_schemes": "22474eed137e7d21",
    "ablation_granularity": "3ebad5af8c4125c5",
    "ablation_rtmax": "9ab9c2f67446dcfc",
    "ablation_robust_timer": "c41880fce227c80e",
    "ablation_tcp_variant": "6036832a9316b54e",
    "ablation_arq_window": "1aa132e2ee61aaa8",
    "ablation_window": "1c2755519de4fd11",
    "snoop_loss_regime": "b3ed45791c88e689",
    "interactive_latency": "5684718f543ea5d1",
}

#: Every simulated claim's configs at scale 0.3 (3 seeds), by id.
CLAIM_DIGESTS = {
    "s421": "56bd7448576a1ffe",
    "s422": "c006fe0eb1948c26",
    "fig7": "29496ff7700811a1",
    "fig8": "5b92393588023eb4",
    "head": "36852ac6a6b0ce38",
    "fig9": "ec1a6bbcaad44a16",
    "fig10": "b9ea11097e5d4cc2",
    "fig11": "debcbf16d7294a14",
    "csdp": "39856b9e65d8eaf6",
    "hand": "bc9e5c60b004533b",
    "cong": "7874b381de3b4a65",
}

#: The configs of perfbench's workloads (and of Figs 3-5), by name.
WORKLOAD_DIGESTS = {
    "fig8-pool": "558d83ed548f2481",
    "lan-serial": "97fd065e7db82034",
    "wan-observed": "5a7ab330782792b8",
    "studies-mix": "720255d81b294f46",
    "trace-example": "d592c76ca504558a",
}


class TestConfigDigests:
    def test_every_table_spec(self):
        got = {
            name: _digest(build(1.0, 10).points.items())
            for name, build in TABLES.items()
        }
        assert got == TABLE_DIGESTS

    def test_every_claim(self):
        got = {
            c.id: _digest(c.spec(0.3, 3).points.items()) for c in CLAIMS if c.configs
        }
        assert got == CLAIM_DIGESTS

    def test_every_benchmark_workload(self):
        got = {name: _digest(points) for name, points in _workloads().items()}
        assert got == WORKLOAD_DIGESTS


def _arq(config) -> tuple:
    arq = config.derived_arq()
    return (arq.ack_timeout, arq.rtmax, arq.backoff_min, arq.backoff_max, arq.window)


#: Exact derived values, as ``repr`` strings (the advisor's 36
#: efficiencies as a digest of theirs).
DERIVED = {
    "advisor": "7095f6abe0812521",
    "advisor.mtu": "128",
    "airtime.wan": "[0.005, 0.023333333333333334, 0.08, 0.08083333333333333]",
    "arq.default": "(0.09899999999999999, 13, 0.2, 0.6, 4)",
    "arq.lan": "(0.009176, 150, 0.005, 0.04, 4)",
    "arq.odd-link": "(0.08125, 13, 0.156875, 0.470625, 4)",
    "arq.wan": "(0.09899999999999999, 13, 0.2, 0.6, 4)",
    "radio.backoff": "(0.2, 0.6)",
    "radio.frame": "0.08",
    "radio.turnaround": "0.009000000000000001",
    "tput_th.lan": "[1.8181818181818181, 1.7391304347826089, 1.6666666666666667, "
    "1.6, 1.5384615384615383, 1.4814814814814814, 1.4285714285714286]",
    "tput_th.wan": "[11.636363636363637, 10.666666666666668, 9.846153846153847, "
    "9.142857142857142]",
}


def _derived() -> dict:
    sim = Simulator()
    odd = WirelessLinkConfig(
        raw_bandwidth_bps=32_000.0, prop_delay=0.003, overhead_factor=1.25, mtu_bytes=201
    )
    link = WirelessLink(sim, WirelessLinkConfig(), channel=None)
    radio = DownlinkRadio(
        sim, CSDP_WIRELESS, {"MH": None}, FifoScheduler(), rng=None,
        deliver=lambda d: None,
    )
    advisor = PacketSizeAdvisor()
    values = {
        "arq.wan": _arq(wan_scenario()),
        "arq.lan": _arq(lan_scenario()),
        "arq.default": _arq(ScenarioConfig()),
        "arq.odd-link": _arq(ScenarioConfig(wireless=odd)),
        "airtime.wan": [link.tx_time(s) for s in (8, 37, 128, 129)],
        "radio.turnaround": radio.turnaround,
        "radio.frame": radio.tx_time(CSDP_WIRELESS.mtu_bytes),
        "radio.backoff": radio._backoff,
        "tput_th.wan": [wan_theoretical_kbps(b) for b in WAN_BAD_PERIODS],
        "tput_th.lan": [lan_theoretical_mbps(b) for b in LAN_BAD_PERIODS],
        "advisor": hashlib.sha256(repr([
            advisor.expected_efficiency(ErrorCondition(10.0, b), s)
            for b in WAN_BAD_PERIODS
            for s in advisor.candidate_sizes
        ]).encode()).hexdigest()[:16],
        "advisor.mtu": advisor.mtu_bytes,
    }
    return {k: v if isinstance(v, str) else repr(v) for k, v in values.items()}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_link_time(name):
    assert _derived()[name] == DERIVED[name]


def test_every_derived_value_is_pinned():
    assert sorted(_derived()) == sorted(DERIVED)
