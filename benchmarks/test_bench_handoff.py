"""Extension: handoff recovery schemes ([4]/[17] companion study).

The paper's §2 opens with Caceres & Iftode: after each cell crossing,
TCP waits out a retransmission timeout unless the fast-retransmit
procedure is invoked explicitly.  This benchmark sweeps the handoff
frequency for all four recovery schemes and reproduces that finding.
"""

from __future__ import annotations

from conftest import DEFAULT_REPS, SCALE, WORKERS, run_once

from repro.experiments.runner import sweep_campaign
from repro.handoff import HandoffConfig, HandoffScheme

INTERVALS = [4.0, 8.0, 16.0]


def _run(transfer):
    points = sweep_campaign(
        [(scheme, interval) for scheme in HandoffScheme for interval in INTERVALS],
        lambda key: HandoffConfig(
            scheme=key[0],
            handoff_interval=key[1],
            disconnect_time=0.3,
            transfer_bytes=transfer,
        ),
        replications=DEFAULT_REPS,
        workers=WORKERS,
    ).points
    out = {}
    for key, point in points.items():
        assert all(result.completed for result in point.results)
        out[key] = dict(
            tput_kbps=point.mean(lambda r: r.metrics.throughput_bps) / 1000,
            timeouts=point.mean(lambda r: r.timeouts),
            stall=point.mean(lambda r: r.stall_time_total),
        )
    return out


def test_handoff_recovery_schemes(benchmark, report):
    transfer = int(100 * 1024 * SCALE)
    results = run_once(benchmark, lambda: _run(transfer))

    lines = [
        "Handoff recovery, 300 ms disconnections, 100 KB transfer:",
        "",
        "scheme             interval(s)  tput(kbps)  timeouts/run  stall(s)",
    ]
    for (scheme, interval), r in results.items():
        lines.append(
            f"{scheme.value:18s} {interval:11.0f}  {r['tput_kbps']:10.2f}"
            f"  {r['timeouts']:12.1f}  {r['stall']:8.1f}"
        )
    report("handoff_schemes", "\n".join(lines))

    for interval in INTERVALS:
        base = results[(HandoffScheme.BASELINE, interval)]
        fast = results[(HandoffScheme.FAST_RTX, interval)]
        fwd = results[(HandoffScheme.FORWARD, interval)]

        # Fast retransmit removes the post-handoff timeout stalls ...
        assert fast["timeouts"] < 0.4 * max(base["timeouts"], 1.0)
        assert fast["tput_kbps"] > base["tput_kbps"]
        # ... and forwarding also helps by saving the stranded data.
        assert fwd["tput_kbps"] > base["tput_kbps"]

    # The damage scales with handoff frequency for the baseline.
    assert (
        results[(HandoffScheme.BASELINE, 4.0)]["tput_kbps"]
        < results[(HandoffScheme.BASELINE, 16.0)]["tput_kbps"]
    )
