#!/usr/bin/env python3
"""The §4.2.4/§5.2 study: EBSN on a wireless LAN (Figure 10).

Sweeps the mean bad-period length on the 2 Mbps LAN configuration and
plots basic TCP vs EBSN against the theoretical maximum.

Usage:
    python examples/lan_ebsn_study.py [transfer_mb] [replications]
"""

from __future__ import annotations

import sys

from repro import Scheme, lan_scenario, sweep
from repro.experiments.ascii_plot import format_table, plot_series
from repro.experiments.config import LAN_BAD_PERIODS
from repro.experiments.figures import lan_theoretical_mbps


def main() -> None:
    transfer_mb = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    replications = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    transfer = int(transfer_mb * 1024 * 1024)

    results = {}
    for scheme in (Scheme.BASIC, Scheme.EBSN):
        results[scheme] = sweep(
            LAN_BAD_PERIODS,
            lambda bad, scheme=scheme: lan_scenario(
                scheme=scheme, bad_period_mean=bad, transfer_bytes=transfer
            ),
            replications=replications,
        )

    theory = [(bad, lan_theoretical_mbps(bad)) for bad in LAN_BAD_PERIODS]
    curves = {
        "theoretical max": theory,
        "EBSN": [
            (bad, r.throughput_mbps) for bad, r in results[Scheme.EBSN].items()
        ],
        "basic TCP": [
            (bad, r.throughput_mbps) for bad, r in results[Scheme.BASIC].items()
        ],
    }
    print(
        plot_series(
            curves,
            title=f"LAN ({transfer_mb:g} MB transfer): throughput vs mean bad period",
            x_label="mean bad period (s)",
            y_label="throughput (Mbps)",
            y_min=0.0,
        )
    )

    rows = []
    for bad in LAN_BAD_PERIODS:
        basic = results[Scheme.BASIC][bad]
        ebsn = results[Scheme.EBSN][bad]
        rows.append(
            [
                f"{bad:g}",
                f"{basic.throughput_mbps:.3f}",
                f"{basic.timeouts_mean:.1f}",
                f"{ebsn.throughput_mbps:.3f}",
                f"{ebsn.timeouts_mean:.1f}",
                f"{(ebsn.throughput_mbps / basic.throughput_mbps - 1) * 100:+.0f}%",
            ]
        )
    print(
        format_table(
            ["bad(s)", "basic Mbps", "basic TO/run", "EBSN Mbps", "EBSN TO/run", "gain"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
