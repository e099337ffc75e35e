"""Parallel experiment engine and hot-path microbenchmarks.

Not a paper figure — these prove the perf claims of the experiment
engine and the simulator it rides on:

* a 10-seed WAN sweep through :class:`ParallelRunner` at 4 workers is
  >= 2x faster than serial (asserted on machines with >= 4 CPUs,
  reported everywhere) and bit-identical to the serial run;
* a warm result cache answers the same sweep with zero simulation;
* ``pending_count()`` is O(1), not a heap scan.
"""

from __future__ import annotations

import os
import time

from conftest import SCALE, run_once

from repro.engine import Simulator
from repro.experiments.cache import ResultCache
from repro.experiments.config import wan_scenario
from repro.experiments.parallel import ParallelRunner

SEEDS = 10
SPEEDUP_WORKERS = 4


def _wan_units(transfer_bytes: int):
    """The acceptance workload: one WAN config per seed, traces off."""
    return [
        wan_scenario(transfer_bytes=transfer_bytes, seed=seed, record_trace=False)
        for seed in range(1, SEEDS + 1)
    ]


def test_parallel_speedup_10_seed_wan_sweep(benchmark):
    """10-seed WAN sweep: 4 workers vs serial, identical results."""
    transfer = int(100 * 1024 * SCALE)

    def run():
        units = _wan_units(transfer)
        start = time.perf_counter()
        serial = ParallelRunner(workers=1).run(units)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        pooled = ParallelRunner(workers=SPEEDUP_WORKERS).run(units)
        pooled_s = time.perf_counter() - start
        return serial, serial_s, pooled, pooled_s

    serial, serial_s, pooled, pooled_s = run_once(benchmark, run)

    # Parallelism must never change the science.
    assert [s.metrics for s in serial] == [p.metrics for p in pooled]
    assert [s.config.seed for s in serial] == [p.config.seed for p in pooled]

    speedup = serial_s / pooled_s if pooled_s > 0 else float("inf")
    cpus = os.cpu_count() or 1
    print(
        f"\n10-seed WAN sweep ({transfer} B/seed): serial {serial_s:.2f}s, "
        f"{SPEEDUP_WORKERS} workers {pooled_s:.2f}s -> {speedup:.2f}x "
        f"({cpus} CPUs)"
    )
    # The >= 2x claim needs the hardware to exist; on fewer CPUs the
    # pool degrades toward serial and we only require it not to choke.
    if cpus >= SPEEDUP_WORKERS:
        assert speedup >= 2.0, f"expected >=2x at {SPEEDUP_WORKERS} workers, got {speedup:.2f}x"
    else:
        assert pooled_s < serial_s * 2.5


def test_cache_turns_sweep_into_reads(benchmark, tmp_path):
    """A warm cache answers the whole sweep without simulating."""
    transfer = int(24 * 1024 * SCALE)
    cache = ResultCache(tmp_path)
    units = _wan_units(transfer)

    start = time.perf_counter()
    cold = ParallelRunner(workers=1, cache=cache).run(units)
    cold_s = time.perf_counter() - start
    assert cache.misses == SEEDS and cache.hits == 0

    warm = run_once(benchmark, lambda: ParallelRunner(workers=1, cache=cache).run(units))
    assert cache.hits == SEEDS  # every unit answered from disk
    assert [c.metrics for c in cold] == [w.metrics for w in warm]

    start = time.perf_counter()
    ParallelRunner(workers=1, cache=cache).run(units)
    warm_s = time.perf_counter() - start
    print(f"\ncold sweep {cold_s:.3f}s, warm sweep {warm_s:.3f}s")
    assert warm_s < cold_s / 5


def test_pending_count_is_constant_time(benchmark):
    """pending_count() must not scan the heap."""
    sim = Simulator()
    events = [sim.schedule(float(i % 997) + 1.0, lambda: None) for i in range(50_000)]
    for event in events[::3]:
        sim.cancel(event)
    expected = sum(1 for entry in sim._heap if entry[2] is not None)
    assert sim.pending_count() == expected

    calls = 10_000
    run_once(benchmark, lambda: [sim.pending_count() for _ in range(calls)])

    start = time.perf_counter()
    for _ in range(calls):
        sim.pending_count()
    o1_per_call = (time.perf_counter() - start) / calls

    scans = 50
    start = time.perf_counter()
    for _ in range(scans):
        sum(1 for entry in sim._heap if entry[2] is not None)
    scan_per_call = (time.perf_counter() - start) / scans

    print(f"\npending_count {o1_per_call * 1e6:.2f}us/call vs heap scan {scan_per_call * 1e6:.2f}us/call")
    assert o1_per_call * 50 < scan_per_call

