"""Extension: interactive (telnet-style) latency per recovery scheme.

The paper motivates its work with interactive applications but
measures bulk transfer.  This benchmark types keystrokes across the
fading WAN path and reports per-keystroke delivery latency.

Two findings:

* EBSN cuts mean latency and spurious timeouts, but the latency *tail*
  is fade-bound — no recovery scheme delivers a keystroke through a
  deep fade, it can only avoid adding timer backoff on top.
* Interactive RTTs are tiny, so the source's RTO sits at the clock-
  granularity floor — *below* the ARQ retry cycle — and the paper's
  per-attempt EBSNs arrive too sparsely to stop every timeout (the
  small-RTT sensitivity of §4.2.4).  The EBSN *heartbeat* extension
  (keep notifying between attempts) closes that gap.
"""

from __future__ import annotations

from conftest import DEFAULT_REPS, SCALE, STRICT, WORKERS, run_once

from repro.experiments.runner import sweep_campaign
from repro.experiments.topology import Scheme
from repro.workloads import InteractiveConfig

VARIANTS = {
    "basic": dict(scheme=Scheme.BASIC),
    "local recovery": dict(scheme=Scheme.LOCAL_RECOVERY),
    "EBSN": dict(scheme=Scheme.EBSN),
    "EBSN + heartbeat": dict(scheme=Scheme.EBSN, ebsn_heartbeat=0.15),
}


def _run(keystrokes):
    points = sweep_campaign(
        VARIANTS,
        lambda label: InteractiveConfig(keystrokes=keystrokes, **VARIANTS[label]),
        replications=DEFAULT_REPS,
        workers=WORKERS,
    ).points
    out = {}
    for label, point in points.items():
        assert all(result.completed for result in point.results)
        out[label] = dict(
            mean=point.mean(lambda r: r.latency.mean),
            p95=point.mean(lambda r: r.latency.p95),
            worst=max(r.latency.worst for r in point.results),
            timeouts=point.mean(lambda r: r.timeouts),
        )
    return out


def test_interactive_latency(benchmark, report):
    keystrokes = max(50, int(300 * SCALE))
    results = run_once(benchmark, lambda: _run(keystrokes))

    lines = [
        f"Keystroke latency over the fading WAN path ({keystrokes} keys/run,",
        f"bad period 2 s, {DEFAULT_REPS} seeds):",
        "",
        "variant            mean(ms)   p95(ms)   worst(ms)   timeouts/run",
    ]
    for label, r in results.items():
        lines.append(
            f"{label:18s} {r['mean'] * 1000:8.0f}   {r['p95'] * 1000:7.0f}"
            f"   {r['worst'] * 1000:9.0f}   {r['timeouts']:12.1f}"
        )
    report("interactive_latency", "\n".join(lines))
    if not STRICT:
        # Smoke scale: the figure above is regenerated and saved, but
        # the paper-shape margins only hold at full scale.
        return


    basic = results["basic"]
    ebsn = results["EBSN"]
    heartbeat = results["EBSN + heartbeat"]

    # EBSN improves the feel of the session ...
    assert ebsn["mean"] < basic["mean"]
    assert ebsn["timeouts"] < 0.7 * basic["timeouts"]
    # ... and the heartbeat extension removes the residual timeouts
    # that the sparse per-attempt EBSN stream cannot (small-RTT RTOs).
    assert heartbeat["timeouts"] < 0.5 * ebsn["timeouts"]
    assert heartbeat["mean"] <= ebsn["mean"] * 1.05
