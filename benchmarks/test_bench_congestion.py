"""§6 extension: wired congestion and the ECN/EBSN interaction.

The paper defers to follow-up work "the impact of congestion in the
wired network on the effectiveness of EBSN" and "the interaction
between ECN and EBSN".  This benchmark runs that experiment: a CBR
cross-traffic source loads the wired bottleneck to 90% while the
wireless hop fades as usual, for every combination of
{basic, EBSN} × {ECN off, ECN on}.

Expected interaction (and what the assertions pin):

* congestion produces real drops; ECN marking removes most of the
  TCP-visible ones (the CBR source ignores ECN, so its drops remain);
* EBSN keeps its advantage under congestion — wireless stalls and
  congestion are separate pathologies;
* EBSN does not mask congestion: with EBSN active the source still
  executes normal congestion recovery for wired losses;
* the combination (EBSN + ECN) has the fewest loss events overall.
"""

from __future__ import annotations

from conftest import DEFAULT_REPS, SCALE, WORKERS, run_once

from repro.experiments.congestion import CongestedScenarioConfig
from repro.experiments.runner import sweep_campaign
from repro.experiments.topology import Scheme
from repro.tcp import TcpConfig

COMBOS = [
    (Scheme.BASIC, False),
    (Scheme.BASIC, True),
    (Scheme.EBSN, False),
    (Scheme.EBSN, True),
]


def _run(transfer):
    points = sweep_campaign(
        COMBOS,
        lambda combo: CongestedScenarioConfig(
            scheme=combo[0],
            ecn=combo[1],
            cross_load=0.9,
            tcp=TcpConfig(transfer_bytes=transfer),
        ),
        replications=DEFAULT_REPS,
        workers=WORKERS,
    ).points
    out = {}
    for combo, point in points.items():
        assert all(result.completed for result in point.results)
        out[combo] = dict(
            tput_kbps=point.mean(lambda r: r.metrics.throughput_bps) / 1000,
            drops=point.mean(lambda r: r.bottleneck_drops),
            marks=point.mean(lambda r: r.ecn_marks),
            responses=point.mean(lambda r: r.ecn_responses),
            timeouts=point.mean(lambda r: r.timeouts),
            fastrtx=point.mean(lambda r: r.fast_retransmits),
        )
    return out


def test_congestion_ecn_ebsn_interaction(benchmark, report):
    transfer = int(60 * 1024 * SCALE)
    results = run_once(benchmark, lambda: _run(transfer))

    lines = [
        "Wired congestion (90% cross load) x wireless fades (bad 1 s):",
        "",
        "scheme  ECN    tput(kbps)  drops  marks  ecn_resp  timeouts  fastrtx",
    ]
    for (scheme, ecn), r in results.items():
        lines.append(
            f"{scheme.value:7s} {str(ecn):5s} {r['tput_kbps']:10.2f}"
            f"  {r['drops']:5.1f}  {r['marks']:5.0f}  {r['responses']:8.1f}"
            f"  {r['timeouts']:8.1f}  {r['fastrtx']:7.1f}"
        )
    report("congestion_ecn_ebsn", "\n".join(lines))

    basic = results[(Scheme.BASIC, False)]
    basic_ecn = results[(Scheme.BASIC, True)]
    ebsn = results[(Scheme.EBSN, False)]
    ebsn_ecn = results[(Scheme.EBSN, True)]

    # Congestion is real, and ECN marking absorbs most drops.
    assert basic["drops"] > 5
    assert basic_ecn["drops"] < 0.6 * basic["drops"]
    assert basic_ecn["marks"] > 0 and basic_ecn["responses"] > 0

    # EBSN keeps its advantage under wired congestion.
    assert ebsn["tput_kbps"] > 1.1 * basic["tput_kbps"]
    # ... while still letting congestion control operate (no masking).
    assert ebsn["fastrtx"] + ebsn["timeouts"] > 0

    # The combination suppresses both pathologies: fewer timeouts than
    # basic, fewer fast retransmits than no-ECN.
    assert ebsn_ecn["timeouts"] < 0.5 * basic["timeouts"]
    assert ebsn_ecn["fastrtx"] <= ebsn["fastrtx"]
