#!/usr/bin/env python3
"""The §6 follow-up experiment: wired congestion meets wireless fades.

A constant-bit-rate source loads the wired bottleneck while the
wireless hop fades as usual.  Compares {basic, EBSN} x {ECN off, on}:
ECN handles the congestion pathology, EBSN the wireless one, and the
two explicit-feedback mechanisms coexist without masking each other.

Usage:
    python examples/congestion_ecn_study.py [cross_load] [seeds]
"""

from __future__ import annotations

import sys

from repro.experiments.ascii_plot import format_table
from repro.experiments.congestion import CongestedScenarioConfig
from repro.experiments.runner import sweep_campaign
from repro.experiments.topology import Scheme


def main() -> None:
    cross_load = float(sys.argv[1]) if len(sys.argv) > 1 else 0.9
    seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    combos = [(s, ecn) for s in (Scheme.BASIC, Scheme.EBSN) for ecn in (False, True)]
    points = sweep_campaign(
        combos,
        lambda combo: CongestedScenarioConfig(
            scheme=combo[0], ecn=combo[1], cross_load=cross_load
        ),
        replications=seeds,
    ).points
    rows = [
        [
            scheme.value,
            "on" if ecn else "off",
            f"{point.mean(lambda r: r.metrics.throughput_kbps):.2f}",
            f"{point.mean(lambda r: r.bottleneck_drops):.1f}",
            f"{point.mean(lambda r: r.ecn_responses):.1f}",
            f"{point.mean(lambda r: r.timeouts):.1f}",
        ]
        for (scheme, ecn), point in points.items()
    ]
    print(
        format_table(
            ["scheme", "ECN", "tput(kbps)", "drops", "ECN resp", "timeouts"],
            rows,
            title=f"Bottleneck at {cross_load:.0%} cross load + wireless fades:",
        )
    )
    print(
        "ECN converts most congestion drops into window halvings; EBSN\n"
        "removes the wireless-stall timeouts.  Each mechanism addresses\n"
        "its own pathology, and the combination suppresses both — the\n"
        "interaction study the paper deferred to future work."
    )


if __name__ == "__main__":
    main()
