#!/usr/bin/env python3
"""The repository's benchmark driver; BENCHMARK.json describes it.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lan-serial --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # every workload
    python3 perfbench/run.py --record   # re-record expected.json after a
                                        # deliberate change of results

``--trace 0`` measures one workload's end-to-end metrics.  ``setup_s``
is the median of several fresh-process probes (``setup_probe.py``).
The workload's units then run in passes for ``--seconds``; ``wall_s``
and ``cpu_s`` (this process plus the workers it reaped) are means
over the passes, ``peak_rss_mb`` is the largest resident set of this
process or of any child, and ``ok_frac`` is the share of units whose
outputs match ``expected.json`` (1 - failed_frac).  ``--workload all``
measures each workload in a process of its own, so that its peak
resident set is its own.

``--trace 1`` gives the per-layer metrics of the whole benchmark, so
it runs every workload whatever ``--workload`` names.  Each workload's
units run in-process twice with the same seed, untraced with counters
and traced (``tracing.py``); counts must repeat exactly and the traced
outputs must equal the untraced ones.  ``fig8-pool`` also runs once in
its pool, for the campaign layer's numbers, and ``wan-observed`` once
without its observers.  The printed metrics are over all workloads;
each workload's own go to the result file.

The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment.  Result files, with the layer map, and the traced
run's spans (the first ``tracing.SPANS_PER_UNIT`` of each unit; the
result file gives spans_kept against spans_opened) go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

#: Fresh-process set-up probes per run; the median is reported.
SETUP_PROBES = 15
#: Passes per measured run, however long they take.
MIN_PASSES = 3
#: Seconds a set-up probe may take.
PROBE_TIMEOUT = 60.0


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_total() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    return cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(resource.RUSAGE_CHILDREN)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def environment() -> dict:
    """What every result is stored with, so that results of different
    machines or revisions are never compared silently."""
    from repro.experiments.cache import code_version_token

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "machine": platform.machine(),
        "git_revision": revision,
        "source_token": code_version_token(),
    }


def probe_setup(name: str, tmp: str) -> float:
    """Seconds from spawning a fresh interpreter to its first unit starting."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), name, tmp],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit code {proc.returncode})")
    return elapsed


def expected_for(expected_all: dict, workload, problems: list) -> dict:
    """The recorded digests of a workload (empty, with a problem, if none)."""
    expected = expected_all.get(workload.name, {})
    if not expected:
        problems.append(f"expected.json has no digests for {workload.name}")
    return expected


def check(workload, result, expected: dict, label: str, problems: list) -> int:
    """Failed units of one pass; notes a problem when there are any."""
    failed = workload.failed_units(result, expected) if expected else result.units
    if failed:
        problems.append(
            f"{label}: {failed} of {result.units} units raised or differ "
            f"from expected.json"
        )
    return failed


def measure(workload, seed, seconds, expected, tmp, problems):
    """End-to-end metrics: set-up probes, then passes for ``seconds``."""
    setups = [probe_setup(workload.name, tmp) for _ in range(SETUP_PROBES)]
    workload.import_modules()
    walls, cpus = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    # Stop before a pass that would overrun the measured time.
    while (len(walls) < MIN_PASSES
           or time.perf_counter() + statistics.median(walls) <= deadline):
        cpu_before = cpu_total()
        start = time.perf_counter()
        result = workload.run_pass(seed, tmp_root=tmp)
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_total() - cpu_before)
        attempted += result.units
        failed += check(workload, result, expected, f"pass {len(walls)}", problems)
    values = {
        "setup_s": statistics.median(setups),
        # Means, not medians: the host's speed flips between two levels
        # for seconds at a time, and a median over passes jumps with it.
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(cpus),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    return attempted, failed, values, {"setup_s": setups, "wall_s": walls, "cpu_s": cpus}


def measure_in_child(name: str, args) -> dict:
    """One workload's ``--trace 0`` result, measured in a fresh process.

    ``peak_rss_mb`` is a high-water mark of the whole process, so each
    workload gets a process of its own.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{name} printed no result (exit code {proc.returncode})")


def _recording(run_campaign, campaigns: list):
    def run_and_record(runner, configs):
        outcome = run_campaign(runner, configs)
        campaigns.append((runner.workers, outcome.report))
        return outcome

    return run_and_record


def instrumented_pass(workload, seed, tmp, tracer=None, observed=True, pooled=False):
    """One pass with its campaigns recorded.

    In-process passes also count (and, given a tracer, trace) every
    unit.  Returns the pass result, per-unit counts, wall seconds, the
    CPU seconds of whoever ran the units, and ``(workers, report)`` per
    campaign.
    """
    from repro.experiments.parallel import ParallelRunner
    from tracing import Counter, Patches

    counter = tracer.counter if tracer is not None else Counter()
    campaigns: list = []
    patches = Patches()
    try:
        patches.replace(ParallelRunner, "run_campaign", lambda run: _recording(run, campaigns))
        if not pooled:
            counter.install(patches)
            if tracer is not None:
                tracer.install(patches)
        who = resource.RUSAGE_CHILDREN if pooled else resource.RUSAGE_SELF
        cpu = cpu_seconds(who)
        start = time.perf_counter()
        result = workload.run_pass(
            seed, inprocess=not pooled, observed=observed, tmp_root=tmp
        )
        wall = time.perf_counter() - start
        cpu = cpu_seconds(who) - cpu
    finally:
        patches.restore()
    return result, counter.units, wall, cpu, campaigns


def trace_workload(workload, seed, expected, tmp, problems, spans_path) -> dict:
    """Raw per-layer data of one workload, summable across workloads."""
    from tracing import COUNTS, Tracer

    workload.import_modules()
    raw = {"attempted": 0, "failed": 0}

    def checked(label, result):
        raw["attempted"] += result.units
        raw["failed"] += check(
            workload, result, expected, f"{workload.name} {label}", problems
        )

    plain, plain_counts, plain_wall, _, _ = instrumented_pass(workload, seed, tmp)
    checked("untraced pass", plain)
    tracer = Tracer()
    traced, traced_counts, traced_wall, _, _ = instrumented_pass(
        workload, seed, tmp, tracer=tracer
    )
    checked("traced pass", traced)
    if traced.digests != plain.digests:
        problems.append(f"{workload.name}: traced outputs differ from untraced ones")
    if traced_counts != plain_counts:
        differing = sorted({
            key
            for a, b in zip(plain_counts, traced_counts)
            for key in COUNTS
            if a[key] != b[key]
        })
        problems.append(
            f"{workload.name}: counts did not repeat under one seed: "
            + ", ".join(differing or ["number of units"])
        )
    # The campaign layer as the workload normally runs it; a workload
    # that bypasses the pool adds nothing to the campaign figures.
    units = busy = capacity = 0
    campaigns: list = []
    if workload.pooled:
        normal, _, wall, busy, campaigns = instrumented_pass(
            workload, seed, tmp, pooled=True
        )
        checked("pool pass", normal)
        units = normal.units
        capacity = wall * max((n for n, _ in campaigns), default=1)
    observed_wall = unobserved_wall = 0.0
    if workload.observers:
        bare, _, unobserved_wall, _, _ = instrumented_pass(
            workload, seed, tmp, observed=False
        )
        checked("unobserved pass", bare)
        observed_wall = plain_wall
    tracer.write_spans(spans_path)
    raw.update({
        "counts": {key: sum(unit[key] for unit in plain_counts) for key in COUNTS},
        "self_s": list(tracer.self_s),
        "inclusive_s": list(tracer.inclusive_s),
        "untraced_s": plain_wall,
        "traced_s": traced_wall,
        "observed_s": observed_wall,
        "unobserved_s": unobserved_wall,
        "campaigns": len(campaigns),
        "units": units,
        "busy_s": busy,
        "capacity_s": capacity,
        "cache_write_s": sum(report.cache_write_seconds for _, report in campaigns),
        "spans_opened": tracer.spans_opened,
        "spans_kept": len(tracer.layer),
    })
    return raw


def combine(raws) -> dict:
    """Element-wise sum of raw per-layer data."""
    total: dict = {}
    for raw in raws:
        for key, value in raw.items():
            if isinstance(value, dict):
                slot = total.setdefault(key, dict.fromkeys(value, 0))
                for name, item in value.items():
                    slot[name] += item
            elif isinstance(value, list):
                slot = total.setdefault(key, [0.0] * len(value))
                for index, item in enumerate(value):
                    slot[index] += item
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(raw: dict) -> dict:
    """The per-layer metrics of raw traced-run data."""
    from tracing import LAYER

    c = raw["counts"]

    def self_s(layer):
        return raw["self_s"][LAYER[layer]]

    def wall_s(layer):
        return raw["inclusive_s"][LAYER[layer]]

    events, pushes = c["engine.events"], c["engine.heap_pushes"]
    hits, misses = c["channel.fast_path_hits"], c["channel.fast_path_misses"]
    first, retx = c["linklayer.first_tx"], c["linklayer.link_retx"]
    return {
        "engine.events": events,
        "engine.heap_pushes": pushes,
        "engine.cancelled_frac": ratio(pushes - events, pushes),
        "engine.events_per_kb": ratio(events, c["tcp.useful_payload_bytes"] / 1024),
        "engine.events_per_s": ratio(events, raw["untraced_s"]),
        "engine.self_s": self_s("engine"),
        "channel.frames_tested": c["channel.frames_tested"],
        "channel.fast_path_frac": ratio(hits, hits + misses),
        "channel.self_s": self_s("channel"),
        "net.wireless_frames": c["net.wireless_frames"],
        "net.frames_corrupted": c["net.frames_corrupted"],
        "net.queue_drops": c["net.queue_drops"],
        "net.self_s": self_s("net"),
        "linklayer.first_tx": first,
        "linklayer.link_retx": retx,
        "linklayer.ack_timeouts": c["linklayer.ack_timeouts"],
        "linklayer.discards": c["linklayer.discards"],
        "linklayer.useful_frac": ratio(first, first + retx),
        "linklayer.self_s": self_s("linklayer"),
        "tcp.segments_sent": c["tcp.segments_sent"],
        "tcp.retransmissions": c["tcp.retransmissions"],
        "tcp.timeouts": c["tcp.timeouts"],
        "tcp.goodput": ratio(c["tcp.useful_wire_bytes"], c["tcp.bytes_sent_wire"]),
        "tcp.self_s": self_s("tcp"),
        "core.feedback_msgs": c["core.feedback_msgs"],
        "core.self_s": self_s("core"),
        "validate.self_s": self_s("validate"),
        "metrics.log_events": c["metrics.log_events"],
        "metrics.self_s": self_s("metrics"),
        "observe.overhead_frac": (
            ratio(raw["observed_s"], raw["unobserved_s"]) - 1.0
            if raw["unobserved_s"] else 0.0
        ),
        "experiments.campaigns": raw["campaigns"],
        "experiments.units": raw["units"],
        "experiments.worker_busy_frac": ratio(raw["busy_s"], raw["capacity_s"]),
        "experiments.dispatch_s_per_unit": ratio(
            raw["capacity_s"] - raw["busy_s"], raw["units"]
        ),
        "experiments.cache_write_s": raw["cache_write_s"],
        "experiments.self_s": self_s("experiments"),
        "handoff.wall_s": wall_s("handoff"),
        "csdp.wall_s": wall_s("csdp"),
        "congestion.wall_s": wall_s("congestion"),
        "trace.overhead_s": raw["traced_s"] - raw["untraced_s"],
        "trace.overhead_frac": ratio(raw["traced_s"], raw["untraced_s"]) - 1.0,
    }


def trace(workloads, seed, expected_all, tmp, problems, stem):
    """Per-layer metrics of every workload, counted and traced in-process."""
    raws = {
        workload.name: trace_workload(
            workload, seed, expected_for(expected_all, workload, problems),
            tmp, problems, OUT / f"{stem}.{workload.name}.spans.tsv",
        )
        for workload in workloads
    }
    total = combine(raws.values())
    detail = {
        name: {"metrics": layer_metrics(raw), "raw": raw} for name, raw in raws.items()
    }
    return total["attempted"], total["failed"], layer_metrics(total), detail


def record(workloads, tmp: str) -> int:
    """Run every workload once and store its digests in expected.json."""
    expected = {}
    for workload in workloads:
        workload.import_modules()
        result = workload.run_pass(0, inprocess=True, tmp_root=tmp)
        if result.errors:
            print(f"perfbench: {workload.name}: {result.errors} unit(s) raised",
                  file=sys.stderr)
            return 1
        expected[workload.name] = result.digests
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def finish(stem, args, env, spec, attempted, failed, values, problems, detail):
    """The result object; written, with its context, to ``OUT/stem.json``."""
    from tracing import INLINED, LAYER_MAP

    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError("the metrics computed are out of step with BENCHMARK.json")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec
        },
    }
    context = {
        "args": vars(args), "environment": env, "problems": problems,
        "detail": detail, "layers": LAYER_MAP, "inlined": INLINED, "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(context, indent=1) + "\n")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the repro package.")
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1, help="orders the units")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per workload (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json from this source tree")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        if args.record:
            return record(WORKLOADS.values(), tmp)
        env = environment()
        expected_all = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        results = {}
        if args.trace:
            stem = f"trace-seed{args.seed}"
            problems: list = []
            *outcome, detail = trace(
                WORKLOADS.values(), args.seed, expected_all, tmp, problems, stem
            )
            results["all"] = finish(stem, args, env, spec, *outcome, problems, detail)
        elif args.workload == "all":
            for name in WORKLOADS:
                results[name] = measure_in_child(name, args)
        else:
            problems = []
            workload = WORKLOADS[args.workload]
            expected = expected_for(expected_all, workload, problems)
            *outcome, detail = measure(
                workload, args.seed, args.seconds, expected, tmp, problems
            )
            results[args.workload] = finish(
                f"{args.workload}-seed{args.seed}", args, env, spec, *outcome,
                problems, detail,
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"environment": env}))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
