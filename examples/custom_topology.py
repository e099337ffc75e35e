#!/usr/bin/env python3
"""Building a custom experiment from the library's components.

The high-level API (`wan_scenario` / `lan_scenario`) covers the
paper's configurations; this example shows the knobs underneath by
modelling a *satellite-backhauled* base station: a slow, long-delay
wired segment in front of the same lossy wireless hop, with a Reno
source and a custom ARQ, comparing schemes under identical fading.

Usage:
    python examples/custom_topology.py
"""

from __future__ import annotations

from repro import ChannelConfig, ScenarioConfig, Scheme, TcpConfig, run_scenario
from repro.linklayer import ArqConfig
from repro.net.wireless import WirelessLinkConfig


def make_config(scheme: Scheme) -> ScenarioConfig:
    wireless = WirelessLinkConfig(
        raw_bandwidth_bps=32_000.0,  # a faster (non-CDPD) radio
        prop_delay=0.004,
        overhead_factor=1.25,  # lighter FEC
        mtu_bytes=256,
    )
    frame_time = wireless.airtime(wireless.mtu_bytes)[1]  # one MTU frame on air
    return ScenarioConfig(
        scheme=scheme,
        tcp=TcpConfig(
            packet_size=1024,
            window_bytes=16 * 1024,
            transfer_bytes=200 * 1024,
            clock_granularity=0.1,
            initial_rto=4.0,  # long path: conservative first RTO
        ),
        channel=ChannelConfig(
            good_period_mean=8.0,
            bad_period_mean=2.0,
            ber_bad=2e-2,  # deeper fades than the paper's default
        ),
        wireless=wireless,
        wired_bandwidth_bps=128_000.0,
        wired_prop_delay=0.25,  # satellite backhaul
        arq=ArqConfig(
            ack_timeout=2 * wireless.prop_delay + frame_time + 0.01,
            rtmax=20,
            backoff_min=frame_time,
            backoff_max=4 * frame_time,
            window=6,
        ),
        tcp_variant="reno",
        seed=11,
    )


def main() -> None:
    print(
        "Satellite-backhauled base station: 128 kbps / 250 ms wired hop,\n"
        "32 kbps wireless hop (MTU 256 B), deep fades (BER 2e-2, mean 2 s),\n"
        "Reno source, 200 KB transfer.\n"
    )
    print(f"{'scheme':16s} {'tput(kbps)':>11s} {'goodput':>8s} {'timeouts':>9s}")
    for scheme in (Scheme.BASIC, Scheme.LOCAL_RECOVERY, Scheme.EBSN):
        result = run_scenario(make_config(scheme))
        m = result.metrics
        print(
            f"{scheme.value:16s} {m.throughput_kbps:11.2f} "
            f"{m.goodput * 100:7.1f}% {m.timeouts:9d}"
        )
    print(
        "\nThe long wired RTT inflates the source's timeout, so basic TCP\n"
        "wastes even more time per fade; EBSN still suppresses the spurious\n"
        "timeouts because the notification only has to beat the (large)\n"
        "RTO, not the wireless round trip."
    )


if __name__ == "__main__":
    main()
