#!/usr/bin/env python3
"""Quickstart: compare every recovery scheme on the paper's WAN setup.

Runs a 100 KB bulk transfer from a fixed host, through a base station,
over a lossy 19.2 kbps wireless link (two-state burst errors, mean good
period 10 s / mean bad period 4 s) to a mobile host — once for each
scheme the paper studies — and prints the comparison.

Usage:
    python examples/quickstart.py [transfer_kb]
"""

from __future__ import annotations

import sys

from repro import Scheme, run_scenario, wan_scenario
from repro.experiments.figures import wan_theoretical_kbps


def main() -> None:
    transfer_kb = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    bad_period = 4.0

    print(f"Transfer: {transfer_kb} KB over FH --56kbps--> BS --19.2kbps--> MH")
    print(f"Channel: mean good period 10 s, mean bad period {bad_period:g} s")
    tput_th = wan_theoretical_kbps(bad_period)
    print(f"Theoretical maximum throughput: {tput_th:.2f} kbps\n")

    header = (
        f"{'scheme':16s} {'time(s)':>8s} {'tput(kbps)':>11s} {'goodput':>8s} "
        f"{'timeouts':>9s} {'src retx':>9s}"
    )
    print(header)
    print("-" * len(header))

    for scheme in Scheme:
        config = wan_scenario(
            scheme=scheme,
            packet_size=576,
            bad_period_mean=bad_period,
            transfer_bytes=transfer_kb * 1024,
            seed=7,
        )
        result = run_scenario(config)
        m = result.metrics
        print(
            f"{scheme.value:16s} {m.duration:8.1f} {m.throughput_kbps:11.2f} "
            f"{m.goodput * 100:7.1f}% {m.timeouts:9d} {m.retransmissions:9d}"
        )

    print(
        "\nEBSN eliminates the spurious timeouts that cripple basic TCP\n"
        "during fades; goodput approaches 100% because the source almost\n"
        "never retransmits — local recovery at the base station does the\n"
        "work, and EBSN keeps the source's timer out of the way."
    )


if __name__ == "__main__":
    main()
