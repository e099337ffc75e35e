#!/usr/bin/env python3
"""The §4.1 study: choosing a good wired packet size (Figure 7).

Sweeps the wired packet size for basic TCP across several wireless
error conditions, plots the throughput curves (ASCII), and then uses
the results to populate the paper's proposed mechanism — a fixed table
at the base station mapping error condition → good packet size
(:class:`repro.core.packet_size.PacketSizeAdvisor`).

Usage:
    python examples/wan_packet_size_study.py [replications]
"""

from __future__ import annotations

import sys

from repro import Scheme, sweep, wan_scenario
from repro.core.packet_size import ErrorCondition, PacketSizeAdvisor
from repro.experiments.ascii_plot import format_table, plot_series
from repro.experiments.config import WAN_GOOD_PERIOD, WAN_PACKET_SIZES
from repro.experiments.figures import wan_theoretical_kbps

BAD_PERIODS = [1.0, 3.0]


def main() -> None:
    replications = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    advisor = PacketSizeAdvisor(mtu_bytes=128)

    curves = {}
    rows = []
    for bad in BAD_PERIODS:
        points = sweep(
            WAN_PACKET_SIZES,
            lambda size, bad=bad: wan_scenario(
                scheme=Scheme.BASIC,
                packet_size=size,
                bad_period_mean=bad,
                record_trace=False,
            ),
            replications=replications,
        )
        curve = [(size, r.throughput_kbps) for size, r in points.items()]
        curves[f"bad={bad:g}s"] = curve

        best_size, best = max(points.items(), key=lambda kv: kv[1].throughput_kbps)
        worst_size, worst = min(points.items(), key=lambda kv: kv[1].throughput_kbps)
        condition = ErrorCondition(good_period_mean=WAN_GOOD_PERIOD, bad_period_mean=bad)
        advisor.learn(condition, best_size)
        rows.append(
            [
                f"{bad:g}",
                f"{wan_theoretical_kbps(bad):.2f}",
                f"{best_size}",
                f"{best.throughput_kbps:.2f}",
                f"{worst_size}",
                f"{worst.throughput_kbps:.2f}",
                f"{(best.throughput_kbps / worst.throughput_kbps - 1) * 100:.0f}%",
            ]
        )

    print(
        plot_series(
            curves,
            title="Basic TCP: throughput (kbps) vs wired packet size (B)",
            x_label="packet size",
            y_label="throughput (kbps)",
        )
    )
    print(
        format_table(
            ["bad(s)", "tput_th", "best size", "best kbps", "worst size",
             "worst kbps", "gain"],
            rows,
            title="Optimal packet size per error condition:",
        )
    )

    print("Base-station advisor table (the paper's proposed mechanism):")
    for condition, size in advisor.table.items():
        print(
            f"  good={condition.good_period_mean:g}s bad={condition.bad_period_mean:g}s"
            f"  ->  use {size} B packets"
        )
    unseen = ErrorCondition(good_period_mean=WAN_GOOD_PERIOD, bad_period_mean=2.0)
    print(
        f"  (unseen condition bad=2 s -> nearest-neighbour recommendation: "
        f"{advisor.recommend(unseen)} B)"
    )


if __name__ == "__main__":
    main()
