#!/usr/bin/env python3
"""Handoff recovery study (the [4]/[17] companion problem).

A mobile host crosses cells periodically, going deaf for 300 ms per
crossing.  Compares the four recovery schemes across handoff rates:
dropped-queue baseline, Caceres-Iftode forced fast retransmit,
BS-to-BS queue forwarding, and both.

Usage:
    python examples/handoff_study.py [transfer_kb] [seeds]
"""

from __future__ import annotations

import sys

from repro.experiments.ascii_plot import format_table
from repro.experiments.runner import sweep_campaign
from repro.handoff import HandoffConfig, HandoffScheme

INTERVALS = (4.0, 12.0)


def main() -> None:
    transfer_kb = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    points = sweep_campaign(
        [(interval, scheme) for interval in INTERVALS for scheme in HandoffScheme],
        lambda point: HandoffConfig(
            scheme=point[1],
            handoff_interval=point[0],
            disconnect_time=0.3,
            transfer_bytes=transfer_kb * 1024,
        ),
        replications=seeds,
    ).points
    for interval in INTERVALS:
        rows = []
        for scheme in HandoffScheme:
            point = points[(interval, scheme)]
            rows.append(
                [
                    scheme.value,
                    f"{point.mean(lambda r: r.metrics.throughput_kbps):.2f}",
                    f"{point.mean(lambda r: r.timeouts):.1f}",
                    f"{point.mean(lambda r: r.stall_time_total):.1f}",
                ]
            )
        print(
            format_table(
                ["scheme", "tput(kbps)", "timeouts/run", "stalled(s)"],
                rows,
                title=f"Handoff every {interval:g} s (300 ms outage), "
                f"{transfer_kb} KB transfer:",
            )
        )

    print(
        "Without help, every cell crossing costs TCP a retransmission\n"
        "timeout (Caceres & Iftode's observation).  Forcing fast\n"
        "retransmit on reattachment removes the stall; forwarding the\n"
        "old base station's queue additionally saves the stranded data."
    )


if __name__ == "__main__":
    main()
