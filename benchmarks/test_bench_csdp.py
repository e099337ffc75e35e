"""§2 / [9]: link-level scheduling for multiple connections.

The paper summarizes Bhagwat et al.: with several TCP connections
sharing the base station's radio, FIFO scheduling suffers head-of-line
blocking when one destination fades, and "scheduling protocols such as
round-robin provide significant performance improvement over FIFO";
CSDP's further gain "depends mostly on the accuracy of the channel
state predictor", and "the problem of source timeouts exists in this
approach too".
"""

from __future__ import annotations

from conftest import DEFAULT_REPS, SCALE, WORKERS, run_once

from repro.csdp import CsdpStudyConfig
from repro.experiments.runner import sweep_campaign

SCHEDULERS = ["fifo", "rr", "csdp"]


def _run(transfer):
    points = sweep_campaign(
        SCHEDULERS,
        lambda sched: CsdpStudyConfig(
            scheduler=sched, n_connections=4, transfer_bytes=transfer
        ),
        replications=DEFAULT_REPS,
        workers=WORKERS,
    ).points
    out = {}
    for sched, point in points.items():
        results = point.results
        assert all(result.all_completed for result in results)

        def avg(metric):
            return sum(metric(result) for result in results) / len(results)

        out[sched] = {
            "agg_kbps": avg(lambda r: r.aggregate_throughput_bps) / 1000,
            "timeouts": avg(lambda r: r.total_timeouts),
            "blocked_s": avg(lambda r: r.radio.idle_blocked_time),
            "fairness": avg(lambda r: r.fairness_index),
        }
    return out


def test_csdp_scheduling(benchmark, report):
    transfer = int(50 * 1024 * SCALE)
    results = run_once(benchmark, lambda: _run(transfer))

    lines = [
        "Link-level scheduling, 4 TCP connections, independent fading",
        f"(good 4 s / bad 1 s per MH, {DEFAULT_REPS} seeds):",
        "",
        "scheduler   aggregate(kbps)   HOL-idle(s)   timeouts   fairness",
    ]
    for sched in SCHEDULERS:
        r = results[sched]
        lines.append(
            f"{sched:9s}   {r['agg_kbps']:15.2f}   {r['blocked_s']:11.1f}"
            f"   {r['timeouts']:8.1f}   {r['fairness']:8.3f}"
        )
    report("csdp_scheduling", "\n".join(lines))

    fifo, rr, csdp = (results[s] for s in SCHEDULERS)
    # Round-robin significantly outperforms FIFO ([9] via §2).
    assert rr["agg_kbps"] > 1.15 * fifo["agg_kbps"]
    # The gain comes from eliminating head-of-line blocking.
    assert fifo["blocked_s"] > 5 * rr["blocked_s"]
    # CSDP is at least as good as round-robin.
    assert csdp["agg_kbps"] > 0.95 * rr["agg_kbps"]
    # Source timeouts persist under every scheduling policy.
    for sched in SCHEDULERS:
        assert results[sched]["timeouts"] > 0
