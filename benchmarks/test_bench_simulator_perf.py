"""Simulator performance microbenchmarks.

Not a paper figure — these keep the engine honest as a piece of
software: event throughput of the raw loop, timer churn, and the
wall-clock cost of a full WAN scenario.  pytest-benchmark runs these
repeatedly and reports distributions, so regressions in the hot paths
(heap discipline, ARQ bookkeeping) show up as slowdowns here.

``test_perf_trajectory`` is the perf-trajectory gate: it measures
events/sec on the workhorse scenarios, writes
``benchmarks/out/BENCH_core.json`` (before/after numbers), and fails on
a >25% throughput regression against the checked-in
``benchmarks/BENCH_core_baseline.json``.  Refresh the baseline after an
intentional perf change with::

    REPRO_BENCH_UPDATE_BASELINE=1 pytest benchmarks/test_bench_simulator_perf.py::test_perf_trajectory
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.engine import Simulator, Timer
from repro.experiments.config import lan_scenario, wan_scenario
from repro.experiments.topology import Scenario, Scheme, run_scenario

BASELINE_PATH = Path(__file__).parent / "BENCH_core_baseline.json"
OUT_PATH = Path(__file__).parent / "out" / "BENCH_core.json"

#: Throughput may regress by at most this factor vs the baseline.
REGRESSION_TOLERANCE = 0.75

#: Required speedup over the recorded pre-optimisation numbers: ≥2×
#: on the machine class the baseline was recorded on, a loose sanity
#: floor anywhere else (absolute events/sec do not transfer between
#: machines).
SPEEDUP_SAME_MACHINE = 2.0
SPEEDUP_FLOOR = 1.2

#: The perf-trajectory scenarios.  "wan-ebsn" is the paper-default
#: workhorse (100 KB, 576 B packets, 1 s bad periods, EBSN).
TRAJECTORY_SCENARIOS = {
    "wan-ebsn": lambda: wan_scenario(scheme=Scheme.EBSN, record_trace=False),
    "wan-basic": lambda: wan_scenario(scheme=Scheme.BASIC, record_trace=False),
    "lan-ebsn": lambda: lan_scenario(scheme=Scheme.EBSN, transfer_bytes=512 * 1024),
}


def _machine_fingerprint() -> str:
    """Coarse machine-class id so absolute numbers compare fairly."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{platform.machine()}/{os.cpu_count()}cpu/{model}"


def _events_per_sec(config_factory, rounds: int = 8) -> float:
    """Best-of-N events/sec for one scenario (best filters scheduler noise).

    One untimed warmup run precedes the timed rounds: on small
    containers the first run pays for code-object warmup and CPU
    frequency ramp, and best-of-N only converges once those are out of
    the way.
    """
    Scenario(config_factory()).run()
    best = 0.0
    for _ in range(rounds):
        scenario = Scenario(config_factory())
        start = time.perf_counter()
        scenario.run()
        elapsed = time.perf_counter() - start
        best = max(best, scenario.sim.events_executed / elapsed)
    return best


def test_perf_trajectory():
    """Measure events/sec, write BENCH_core.json, gate on the baseline."""
    current = {
        name: round(_events_per_sec(factory))
        for name, factory in TRAJECTORY_SCENARIOS.items()
    }
    machine = _machine_fingerprint()

    if os.environ.get("REPRO_BENCH_UPDATE_BASELINE"):
        baseline = json.loads(BASELINE_PATH.read_text())
        baseline["machine"] = machine
        baseline["events_per_sec"] = current
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"\nbaseline updated: {BASELINE_PATH}")
        return

    baseline = json.loads(BASELINE_PATH.read_text())
    pre_pr = baseline["pre_pr_events_per_sec"]
    same_machine = baseline["machine"] == machine
    required = SPEEDUP_SAME_MACHINE if same_machine else SPEEDUP_FLOOR

    # Shared containers show transient whole-process slowdowns of
    # 20%+; a single re-measure of only the scenarios that missed
    # their threshold separates those from genuine regressions.
    def _below_threshold(name):
        if current[name] < baseline["events_per_sec"][name] * REGRESSION_TOLERANCE:
            return True
        return name == "wan-ebsn" and current[name] < pre_pr[name] * required

    for name in [n for n in current if _below_threshold(n)]:
        retry = round(_events_per_sec(TRAJECTORY_SCENARIOS[name]))
        current[name] = max(current[name], retry)

    trajectory = {
        "machine": machine,
        "baseline_machine": baseline["machine"],
        "pre_pr_events_per_sec": pre_pr,
        "baseline_events_per_sec": baseline["events_per_sec"],
        "current_events_per_sec": current,
        "speedup_vs_pre_pr": {
            name: round(current[name] / pre_pr[name], 2) for name in current
        },
    }
    OUT_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"\n{json.dumps(trajectory, indent=2)}\n[written to {OUT_PATH}]")

    for name, value in current.items():
        floor = baseline["events_per_sec"][name] * REGRESSION_TOLERANCE
        assert value >= floor, (
            f"{name}: {value:,.0f} events/sec is a >25% regression vs the "
            f"baseline {baseline['events_per_sec'][name]:,.0f} "
            f"(REPRO_BENCH_UPDATE_BASELINE=1 refreshes an intentional change)"
        )
    speedup = current["wan-ebsn"] / pre_pr["wan-ebsn"]
    assert speedup >= required, (
        f"wan-ebsn speedup {speedup:.2f}x vs the pre-optimisation baseline "
        f"is below the required {required}x"
    )


def test_event_loop_throughput(benchmark):
    """Schedule-and-run 50k chained events."""

    def run():
        sim = Simulator()
        count = 50_000

        def chain(n):
            if n:
                sim.schedule(0.001, chain, n - 1)

        chain_start = count
        sim.schedule(0.0, chain, chain_start)
        sim.run()
        return sim.events_executed

    executed = benchmark(run)
    assert executed == 50_001


def test_timer_restart_churn(benchmark):
    """The EBSN pattern at scale: 20k restarts of one timer."""

    def run():
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1e9)
        for _ in range(20_000):
            timer.restart(1e9)
        timer.cancel()
        sim.run()
        return timer.expiry_count

    assert benchmark(run) == 0


def test_heap_with_cancellations(benchmark):
    """Half the scheduled events get cancelled (ARQ-like churn)."""

    def run():
        sim = Simulator()
        events = [sim.schedule(float(i % 97) + 1.0, lambda: None) for i in range(20_000)]
        for event in events[::2]:
            sim.cancel(event)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 10_000


def test_full_wan_scenario_cost(benchmark):
    """Wall-clock cost of one 100 KB EBSN run (the workhorse unit)."""

    def run():
        return run_scenario(
            wan_scenario(
                scheme=Scheme.EBSN,
                bad_period_mean=4.0,
                transfer_bytes=100 * 1024,
                record_trace=False,
            )
        )

    result = benchmark(run)
    assert result.completed
