"""The paper's exact experiment parameter sets.

Wide-area study (§3, §5.1):
    wired 56 kbps; wireless 19.2 kbps raw / 12.8 kbps effective
    (1.5× overhead), MTU 128 B; TCP window 4 KB, clock 100 ms;
    100 KB transfer; packet sizes 128–1536 B; good period mean 10 s;
    bad period mean 1–4 s; BER 1e-6 good / 1e-2 bad.

Local-area study (§4.2.4, §5.2):
    wired 10 Mbps; wireless 2 Mbps, no fragmentation/overhead;
    window 64 KB; packet size 1536 B; 4 MB transfer; good period
    mean 4 s; bad period mean 0.4–1.6 s.

Each WAN number is one component default, which :func:`wan_scenario`
leaves alone: the wireless hop in ``WirelessLinkConfig``, window, clock,
packet size and transfer in ``TcpConfig``, fading in ``ChannelConfig``,
the wired hop in ``ScenarioConfig``, RTmax in ``ArqConfig``, the swept
sizes in ``repro.net.packet``.  The LAN's are written here.  Airtime is
``WirelessLinkConfig.airtime``; ARQ timing, ``ArqConfig.for_link``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.topology import ChannelConfig, ScenarioConfig, Scheme
from repro.linklayer import ArqConfig
from repro.net.packet import WAN_PACKET_SIZES  # noqa: F401  (Figs 7-9's sizes)
from repro.net.wireless import WirelessLinkConfig
from repro.tcp import TcpConfig

#: Mean bad-period lengths of the WAN study (seconds).
WAN_BAD_PERIODS = [1.0, 2.0, 3.0, 4.0]

#: Mean good-period length of the WAN study (seconds).
WAN_GOOD_PERIOD = ChannelConfig.good_period_mean

#: Mean bad-period lengths of the LAN study (seconds).
LAN_BAD_PERIODS = [0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6]

#: Mean good-period length of the LAN study (seconds).
LAN_GOOD_PERIOD = 4.0

#: WAN transfer size (bytes): "Each run involved a 100 Kbyte file".
WAN_TRANSFER_BYTES = TcpConfig.transfer_bytes

#: LAN transfer size (bytes): "Each run involved a 4 Mbyte file".
LAN_TRANSFER_BYTES = 4 * 1024 * 1024


def lan_wireless() -> WirelessLinkConfig:
    """The 2 Mbps wireless LAN hop of §4.2.4 (no fragmentation)."""
    return WirelessLinkConfig(
        raw_bandwidth_bps=2_000_000.0,
        prop_delay=0.000_5,
        overhead_factor=1.0,
        mtu_bytes=1536,
    )


def lan_arq() -> ArqConfig:
    """Local-recovery parameters for the LAN study.

    The paper fixes RTmax = 13 from the CDPD spec for the WAN; the LAN
    link layer is only described as "local recovery", so we time the
    same protocol to the LAN hop (2 ms ACK slack) but give it persistence
    comparable to the fade timescale (a 2 Mbps radio can afford many
    more attempts per second than a 19.2 kbps one).  See DESIGN.md.
    """
    return replace(
        ArqConfig.for_link(lan_wireless(), ack_slack=0.002),
        rtmax=150,
        backoff_min=0.005,
        backoff_max=0.04,
    )


def wan_scenario(
    scheme: Scheme = Scheme.BASIC,
    packet_size: int = TcpConfig.packet_size,
    bad_period_mean: float = 1.0,
    good_period_mean: float = WAN_GOOD_PERIOD,
    seed: int = 1,
    deterministic: bool = False,
    transfer_bytes: int = WAN_TRANSFER_BYTES,
    record_trace: bool = True,
    tcp_variant: str = "tahoe",
) -> ScenarioConfig:
    """One wide-area run of the §5.1 study, at the components' defaults."""
    return ScenarioConfig(
        scheme=scheme,
        tcp=TcpConfig(packet_size=packet_size, transfer_bytes=transfer_bytes),
        channel=ChannelConfig(
            good_period_mean=good_period_mean,
            bad_period_mean=bad_period_mean,
            deterministic=deterministic,
        ),
        tcp_variant=tcp_variant,
        seed=seed,
        record_trace=record_trace,
    )


def lan_scenario(
    scheme: Scheme = Scheme.BASIC,
    bad_period_mean: float = 0.8,
    seed: int = 1,
    transfer_bytes: int = LAN_TRANSFER_BYTES,
    record_trace: bool = False,
) -> ScenarioConfig:
    """One local-area run of the §5.2 study (Tahoe, and packets of the
    hop's 1536 B MTU, so nothing fragments)."""
    wireless = lan_wireless()
    return ScenarioConfig(
        scheme=scheme,
        tcp=TcpConfig(
            packet_size=wireless.mtu_bytes,
            window_bytes=64 * 1024,
            transfer_bytes=transfer_bytes,
        ),
        channel=ChannelConfig(
            good_period_mean=LAN_GOOD_PERIOD,
            bad_period_mean=bad_period_mean,
        ),
        wireless=wireless,
        wired_bandwidth_bps=10_000_000.0,
        wired_prop_delay=0.001,
        arq=lan_arq(),
        seed=seed,
        record_trace=record_trace,
    )


def trace_example_scenario(scheme: Scheme) -> ScenarioConfig:
    """The §4.2.1 deterministic example behind Figs 3–5.

    576 B packets, 4 KB window, good period exactly 10 s, bad period
    exactly 4 s, losses deterministic, starting in the good state.
    """
    return wan_scenario(
        scheme=scheme,
        bad_period_mean=4.0,
        good_period_mean=WAN_GOOD_PERIOD,
        deterministic=True,
    )
