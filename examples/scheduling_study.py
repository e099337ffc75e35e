#!/usr/bin/env python3
"""Link-level scheduling for multiple connections (the [9] baseline).

Four TCP connections share one base-station radio; each mobile host
fades independently.  Compares FIFO (head-of-line blocking),
round-robin, and channel-state-dependent (CSDP) scheduling, and shows
how CSDP's gain depends on its predictor's probe interval.

Usage:
    python examples/scheduling_study.py [transfer_kb] [seeds]
"""

from __future__ import annotations

import sys

from repro.csdp import CsdpStudyConfig
from repro.experiments.ascii_plot import format_table
from repro.experiments.runner import sweep_campaign

SCHEDULERS = ("fifo", "rr", "csdp")
#: CSDP predictor probe intervals (s), around the study's default.
PROBES = (0.1, 0.5, 2.0)
DEFAULT_PROBE = CsdpStudyConfig.csdp_probe_interval


def main() -> None:
    transfer_kb = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    # (scheduler, probe interval): every scheduler at the default probe,
    # then CSDP at each probe interval.
    runs = [(sched, DEFAULT_PROBE) for sched in SCHEDULERS]
    runs += [("csdp", probe) for probe in PROBES]
    points = sweep_campaign(
        dict.fromkeys(runs),
        lambda run: CsdpStudyConfig(
            scheduler=run[0],
            csdp_probe_interval=run[1],
            transfer_bytes=transfer_kb * 1024,
        ),
        replications=seeds,
    ).points

    def agg(point):
        return point.mean(lambda r: r.aggregate_throughput_bps / 1000)

    rows = []
    for sched in SCHEDULERS:
        point = points[(sched, DEFAULT_PROBE)]
        rows.append(
            [
                sched,
                f"{agg(point):.2f}",
                f"{point.mean(lambda r: r.radio.idle_blocked_time):.1f}",
                f"{point.mean(lambda r: r.total_timeouts):.1f}",
            ]
        )
    print(
        format_table(
            ["scheduler", "aggregate(kbps)", "HOL idle(s)", "timeouts/run"],
            rows,
            title="4 connections, independent fading (good 4 s / bad 1 s):",
        )
    )

    rows = [[f"{probe:g}", f"{agg(points[('csdp', probe)]):.2f}"] for probe in PROBES]
    print(
        format_table(
            ["probe interval(s)", "aggregate(kbps)"],
            rows,
            title="CSDP predictor accuracy trade-off (probe interval):",
        )
    )
    print(
        "Round-robin removes the FIFO head-of-line blocking; CSDP's\n"
        "extra edge depends on how well its probe interval matches the\n"
        "fade timescale — the accuracy caveat the paper's §2 raises.\n"
        "Source timeouts persist under every policy: scheduling is\n"
        "complementary to EBSN, not a substitute."
    )


if __name__ == "__main__":
    main()
