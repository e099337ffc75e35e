"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``    — one transfer under a chosen scheme; print metrics.
* ``trace``  — render a Fig 3/4/5 style trace under any scheme.
* ``sweep``  — packet-size (WAN) or bad-period (LAN) sweep.
* ``figure`` — print a paper figure's ``benchmarks/out`` table (3-5, 7-11).
* ``csdp``   — the multi-connection scheduling study.
* ``handoff``— the two-cell handoff study.
* ``congestion`` — the wired-congestion / ECN / EBSN interaction.
* ``validate`` — run every claim check and print a ✓/✗ report.
* ``replay`` — re-run a recorded invariant-violation bundle.
* ``profile`` — cProfile one run; hot functions + perf counters.
* ``report`` — regenerate every ``benchmarks/out`` table and REPORT.md.

Simulation commands accept ``--validate`` to attach the runtime
invariant engine (:mod:`repro.validate`); a violation aborts the
command with exit code 3 and prints the replay-bundle path.

The multi-run commands (``sweep``, ``figure``) are fault-tolerant:
``--timeout`` bounds each unit's wall-clock time, ``--retries`` bounds
how often a timed-out or crashed unit is re-run, ``--resume JOURNAL``
checkpoints completed units to a journal file (and skips them when
re-invoked after a crash or Ctrl-C), and ``--fail-fast`` aborts on the
first quarantined unit instead of degrading to partial aggregates.
Partial aggregates print an explicit completeness report and exit 1;
an aborted campaign exits 4; SIGINT/SIGTERM exits 130 after flushing
the journal.

Every multi-run command prints :class:`~repro.experiments.points.TableSpec`
renders: ``sweep`` its sweep's spec (:func:`sweep_table`), ``figure``
the figure's (:data:`~repro.experiments.figures.FIGURES`), and the
study commands their benchmark table's
(:mod:`repro.experiments.tables`) over the points their flags select.
``sweep`` and ``figure`` run theirs as one campaign under the engine
flags and print its completeness report after; ``figure 3``-``5`` print
:func:`~repro.experiments.figures.trace_table` of one run and reject
the campaign flags (exit 2).  ``report`` writes
:func:`~repro.experiments.tables.render_all`'s tables, or nothing if a
unit fails.

Each handler imports the modules its command uses, so ``repro run``
loads no pool, cache, journal, figure or study module, and ``sweep``
and ``figure`` load no study module.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional

from repro.experiments.config import (
    LAN_BAD_PERIODS,
    WAN_PACKET_SIZES,
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.faults import (
    CampaignError,
    CampaignInterrupted,
    CompletenessReport,
)
from repro.experiments.topology import Scheme, run_scenario

if TYPE_CHECKING:
    from repro.experiments.cache import ResultCache
    from repro.experiments.journal import CampaignJournal
    from repro.experiments.points import TableSpec

SCHEMES = {s.value: s for s in Scheme}


def positive_int(text: str) -> int:
    """argparse type for a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type for a time, period or scale: a finite number above 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {value}")
    return value


def trace_width(text: str) -> int:
    """argparse type for ``trace --width``: the time axis needs 10 columns."""
    value = int(text)
    if value < 10:
        raise argparse.ArgumentTypeError(f"must be at least 10, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type for a retry count: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _study_config(args: argparse.Namespace, cls, **fields):
    """``cls(**fields)``; the config's own validation error exits 2."""
    try:
        return cls(**fields)
    except ValueError as err:
        args.parser.error(str(err))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    parser.add_argument(
        "--scheme",
        choices=sorted(SCHEMES),
        default="ebsn",
        help="recovery scheme (default: ebsn)",
    )


def _add_single_run(parser: argparse.ArgumentParser) -> None:
    """The link, size and fading flags of ``run`` and ``profile``."""
    parser.add_argument("--lan", action="store_true", help="LAN config instead of WAN")
    parser.add_argument(
        "--packet-size", type=int, default=None, help="WAN packet bytes (default 576)"
    )
    parser.add_argument("--bad-period", type=positive_float, default=1.0)
    parser.add_argument("--transfer-kb", type=positive_int, default=100)


def _add_engine(parser: argparse.ArgumentParser) -> None:
    """Parallel-engine knobs shared by the multi-run commands."""
    parser.add_argument(
        "--workers",
        type=non_negative_int,
        default=1,
        help="worker processes for seed fan-out (1 = serial, 0 = one per CPU)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache "
        "($REPRO_CACHE_DIR, else ~/.cache/repro-tcp-wireless)",
    )
    parser.add_argument(
        "--timeout",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per simulation unit; a unit past it is "
        "killed, retried, and eventually quarantined",
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        default=None,
        metavar="N",
        help="re-runs allowed per timed-out/crashed unit "
        "(default: the engine's retry policy)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="checkpoint journal path: completed units are appended as "
        "they finish and skipped on re-invocation (created if missing)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the whole campaign on the first quarantined unit "
        "(default: degrade to partial aggregates and report what's missing)",
    )


def _engine_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The result cache to use, honoring ``--no-cache``."""
    if args.no_cache:
        return None
    from repro.experiments.cache import ResultCache

    return ResultCache()


def _engine_journal(args: argparse.Namespace) -> Optional[CampaignJournal]:
    """The checkpoint journal to use, honoring ``--resume``; a journal
    that cannot be opened is a usage error."""
    if not args.resume:
        return None
    from repro.experiments.journal import CampaignJournal

    try:
        return CampaignJournal(args.resume)
    except OSError as err:
        args.parser.error(f"--resume: cannot open journal {args.resume}: {err.strerror}")


def _engine_kwargs(args: argparse.Namespace, journal) -> dict:
    """The fault-tolerant engine knobs shared by sweep/figure."""
    return dict(
        workers=args.workers,
        cache=_engine_cache(args),
        validate=args.validate,
        timeout=args.timeout,
        retries=args.retries,
        fail_fast=args.fail_fast,
        journal=journal,
    )


def _finish_campaign(report: CompletenessReport) -> int:
    """Print the completeness report; exit 1 when aggregates are partial."""
    print()
    print(report.describe())
    return 0 if report.complete else 1


def _add_validate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--validate",
        action="store_true",
        help="attach the runtime invariant engine to every simulated run",
    )


def _single_run_validate(args: argparse.Namespace) -> Optional[bool]:
    """``run_scenario``'s validate arg: explicit on, else process default."""
    return True if args.validate else None


def _run_config(args: argparse.Namespace, **fields):
    """The Fig. 2 config the flags describe, ``fields`` overriding them
    (a ``sweep`` point's swept value); a bad value exits 2."""
    fields = {
        "scheme": SCHEMES[args.scheme],
        "bad_period_mean": args.bad_period,
        "transfer_bytes": args.transfer_kb * 1024,
        "seed": args.seed,
        **fields,
    }
    # ``sweep`` has no --packet-size; it sets the WAN's size per point.
    packet_size = getattr(args, "packet_size", None)
    if args.lan:
        if packet_size is not None:
            args.parser.error("--packet-size is WAN-only: LAN packets are 1536 B")
        return _study_config(args, lan_scenario, **fields)
    if packet_size is not None:
        fields["packet_size"] = packet_size
    return _study_config(args, wan_scenario, **fields)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _run_config(args)
    result = run_scenario(config, validate=_single_run_validate(args))
    m = result.metrics
    unit = "Mbps" if args.lan else "kbps"
    tput = m.throughput_bps / (1e6 if args.lan else 1e3)
    tput_th = result.tput_th_bps / (1e6 if args.lan else 1e3)
    print(f"scheme            : {config.scheme.value}")
    print(f"completed         : {result.completed}")
    print(f"duration          : {m.duration:.2f} s")
    print(f"throughput        : {tput:.3f} {unit}  (theoretical max {tput_th:.3f})")
    print(f"goodput           : {m.goodput * 100:.1f} %")
    print(f"timeouts          : {m.timeouts}")
    print(f"fast retransmits  : {m.fast_retransmits}")
    print(f"retransmitted     : {m.retransmitted_kbytes:.1f} KB")
    return 0 if result.completed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.figures import trace_header

    result = run_scenario(
        replace(trace_example_scenario(SCHEMES[args.scheme]), seed=args.seed),
        validate=_single_run_validate(args),
    )
    print(trace_header(f"{args.scheme}:", result))
    print(result.trace.render(width=args.width, t_max=args.t_max))
    return 0


def _print_campaign(
    args: argparse.Namespace, spec: TableSpec, replications: int, base_seed: int = 1
) -> int:
    """Print the table of ``spec``, run over ``replications`` seeds as
    one campaign under the engine flags, then its completeness report."""
    from repro.experiments.points import run_specs

    journal = _engine_journal(args)
    try:
        results, campaign = run_specs(
            {None: spec}, replications, base_seed, **_engine_kwargs(args, journal)
        )
    finally:
        if journal is not None:
            journal.close()
    print(spec.render(results[None]))
    return _finish_campaign(campaign.report)


def sweep_table(args: argparse.Namespace) -> TableSpec:
    """The sweep the flags describe: the WAN's packet sizes or the LAN's
    bad periods, one row each."""
    from repro.experiments.figures import lan_theoretical_mbps, wan_theoretical_kbps
    from repro.experiments.points import TableSpec, table_renderer

    scheme = SCHEMES[args.scheme].value
    if args.lan:
        return TableSpec(
            {bad: _run_config(args, bad_period_mean=bad) for bad in LAN_BAD_PERIODS},
            table_renderer(
                f"LAN sweep, scheme={scheme}:",
                "bad(s)  tput(Mbps)  tput_th  goodput  timeouts/run",
                lambda bad, r: f"{bad:6.1f}  {r.throughput_mbps:10.3f}"
                f"  {lan_theoretical_mbps(bad):7.3f}  {r.goodput_mean:7.3f}"
                f"  {r.timeouts_mean:12.1f}",
            ),
        )
    bad = args.bad_period
    return TableSpec(
        {size: _run_config(args, packet_size=size) for size in WAN_PACKET_SIZES},
        table_renderer(
            f"WAN packet-size sweep, scheme={scheme}, bad={bad:g}s "
            f"(tput_th={wan_theoretical_kbps(bad):.2f} kbps):",
            "size(B)  tput(kbps)  goodput  timeouts/run",
            lambda size, r: f"{size:7d}  {r.throughput_kbps:10.2f}"
            f"  {r.goodput_mean:7.3f}  {r.timeouts_mean:12.1f}",
        ),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _print_campaign(args, sweep_table(args), args.replications, args.seed)


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import FIGURES, trace_figure, trace_table

    n = args.number
    if n in (3, 4, 5):
        # One run: a campaign flag set to anything but its default is an error.
        for dest in ("replications", "workers", "no_cache", "timeout", "retries",
                     "resume", "fail_fast"):
            if getattr(args, dest) != args.parser.get_default(dest):
                flag = "--" + dest.replace("_", "-")
                args.parser.error(f"{flag}: figure {n} is one run, not a campaign")
        result = trace_figure(n, validate=_single_run_validate(args))
        print(trace_table(n, result), end="")
        return 0
    spec = FIGURES[n](1.0, args.replications)
    return _print_campaign(args, spec, args.replications)


def _print_table(
    args: argparse.Namespace, build, replications: int, base_seed: int = 1
) -> int:
    """Print the table of the spec ``build()`` returns over
    ``replications`` seeds; a bad config in it exits 2."""
    from repro.experiments.points import run_specs

    spec = _study_config(args, build)
    results, _ = run_specs({None: spec}, replications, base_seed)
    print(spec.render(results[None]))
    return 0


def _cmd_csdp(args: argparse.Namespace) -> int:
    from repro.experiments.tables import csdp_table

    return _print_table(
        args,
        lambda: csdp_table(args.transfer_kb * 1024, 1, connections=args.connections),
        1,
        args.seed,
    )


def _cmd_handoff(args: argparse.Namespace) -> int:
    from repro.experiments.tables import handoff_table

    return _print_table(
        args,
        lambda: handoff_table(
            args.transfer_kb * 1024,
            intervals=(args.interval,),
            disconnect=args.disconnect,
        ),
        args.seeds,
    )


def _cmd_congestion(args: argparse.Namespace) -> int:
    from repro.experiments.tables import congestion_table

    return _print_table(args, lambda: congestion_table(load=args.load), args.seeds)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.claims import validate_all

    results = validate_all(scale=args.scale, seeds=args.seeds)
    width = max(len(c.statement) for c, _ in results)
    failures = 0
    for claim, result in results:
        mark = "\u2713" if result.passed else "\u2717"
        if not result.passed:
            failures += 1
        print(f"[{mark}] {claim.source:8s} {claim.statement:<{width}}  {result.detail}")
    total = len(results)
    print(f"\n{total - failures}/{total} claims validated "
          f"(scale {args.scale:g}, {args.seeds} seeds)")
    return 0 if failures == 0 else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.validate.bundle import load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as err:
        print(f"cannot load bundle {args.bundle}: {err}", file=sys.stderr)
        return 2
    print(f"bundle    : {args.bundle}")
    print(f"captured  : {len(bundle.violations)} violation(s), "
          f"seed {bundle.config.seed}, {type(bundle.config).__name__}")
    for violation in bundle.violations:
        print(f"  - {violation.describe()}")
    outcome = replay_bundle(bundle)
    if not outcome.code_matches:
        print("note      : code has changed since capture "
              "(digest mismatch); replay may diverge")
    if outcome.reproduced:
        print(f"replayed  : REPRODUCED — {len(outcome.violations)} violation(s)")
        for violation in outcome.violations:
            print(f"  - {violation.describe()}")
        return 0
    if outcome.violations:
        print(f"replayed  : DIFFERENT violations ({len(outcome.violations)}):")
        for violation in outcome.violations:
            print(f"  - {violation.describe()}")
    else:
        print("replayed  : no violation reproduced (run was clean)")
    return 1


def _print_perf_summary(scenario) -> None:
    sim = scenario.sim
    channel = scenario.channel
    counters = sim.perf_counters()
    hits = channel.fast_path_hits
    misses = channel.fast_path_misses
    total = hits + misses
    print(f"events executed   : {counters['events_executed']}")
    print(f"wall time         : {counters['run_wall_seconds']:.4f} s")
    print(f"events/sec        : {counters['events_per_sec']:,.0f}")
    print(f"heap pushes       : {counters['heap_pushes']}")
    print(f"frames tested     : {channel.frames_tested}")
    if total:
        print(
            f"channel fast path : {hits}/{total} hits ({hits / total:.1%})"
        )


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one uninstrumented run and report the hot functions."""
    import cProfile
    import pstats

    from repro.experiments.topology import Scenario

    scenario = Scenario(_run_config(args, record_trace=False))
    if args.events_per_sec:
        scenario.run()
        _print_perf_summary(scenario)
        return 0
    profiler = cProfile.Profile()
    profiler.enable()
    scenario.run()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    _print_perf_summary(scenario)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every committed table (one worker per CPU, no cache),
    then write each to ``--out-dir`` and REPORT.md."""
    import os
    import time
    from pathlib import Path

    from repro.experiments.tables import REPLICATIONS, render_all

    start, times = time.perf_counter(), os.times()
    texts = render_all(1.0, REPLICATIONS, workers=0)
    wall = time.perf_counter() - start
    cpu = sum(os.times()[:4]) - sum(times[:4])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sections = ["# Benchmark report", "",
                "Regenerated by `python -m repro report`.", ""]
    for name, text in texts.items():
        (out_dir / f"{name}.txt").write_text(text)
        sections += [f"## {name}", "", "```", text.rstrip(), "```", ""]
    Path(args.output).write_text("\n".join(sections))
    print(f"wrote {len(texts)} tables to {out_dir} and {args.output} "
          f"in {wall:.1f} s wall, {cpu:.1f} s CPU")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TCP-over-wireless reproduction (ICDCS '97): run the "
        "paper's experiments from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one transfer and print metrics")
    _add_common(p)
    _add_single_run(p)
    _add_validate(p)
    p.set_defaults(func=_cmd_run, parser=p)

    p = sub.add_parser("trace", help="render a Figs 3-5 style trace")
    _add_common(p)
    p.add_argument("--width", type=trace_width, default=100)
    p.add_argument("--t-max", type=positive_float, default=60.0)
    _add_validate(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("sweep", help="packet-size (WAN) or bad-period (LAN) sweep")
    _add_common(p)
    p.add_argument("--lan", action="store_true")
    p.add_argument("--bad-period", type=positive_float, default=1.0)
    p.add_argument("--transfer-kb", type=positive_int, default=100)
    p.add_argument("--replications", type=positive_int, default=5)
    _add_engine(p)
    _add_validate(p)
    p.set_defaults(func=_cmd_sweep, parser=p)

    p = sub.add_parser("figure", help="regenerate a paper figure's series")
    p.add_argument(
        "number",
        type=int,
        choices=(3, 4, 5, 7, 8, 9, 10, 11),
        help="figure number (3-5, 7-11)",
    )
    p.add_argument("--replications", type=positive_int, default=5)
    _add_engine(p)
    _add_validate(p)
    p.set_defaults(func=_cmd_figure, parser=p)

    p = sub.add_parser("csdp", help="multi-connection scheduling study")
    p.add_argument("--connections", type=positive_int, default=4)
    p.add_argument("--transfer-kb", type=positive_int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_csdp, parser=p)

    p = sub.add_parser("handoff", help="two-cell handoff study")
    p.add_argument("--interval", type=positive_float, default=8.0)
    p.add_argument("--disconnect", type=float, default=0.3)
    p.add_argument("--transfer-kb", type=positive_int, default=60)
    p.add_argument("--seeds", type=positive_int, default=3)
    p.set_defaults(func=_cmd_handoff, parser=p)

    p = sub.add_parser("congestion", help="congestion / ECN / EBSN interaction")
    p.add_argument("--load", type=float, default=0.9)
    p.add_argument("--seeds", type=positive_int, default=3)
    p.set_defaults(func=_cmd_congestion, parser=p)

    p = sub.add_parser("validate", help="run every claim check (\u2713/\u2717 report)")
    p.add_argument("--scale", type=positive_float, default=0.3, help="transfer scale factor")
    p.add_argument("--seeds", type=positive_int, default=3)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "replay", help="re-run a recorded invariant-violation bundle"
    )
    p.add_argument("bundle", help="path to a violation-*.json replay bundle")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "profile",
        help="cProfile one run; print hot functions and perf counters",
    )
    _add_common(p)
    _add_single_run(p)
    p.add_argument("--top", type=positive_int, default=15, help="functions to print")
    p.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "ncalls"],
        default="cumulative",
        help="pstats sort order (default: cumulative)",
    )
    p.add_argument(
        "--events-per-sec",
        action="store_true",
        help="skip the profiler; print only the throughput summary",
    )
    p.set_defaults(func=_cmd_profile, parser=p)

    p = sub.add_parser(
        "report", help="regenerate every benchmarks/out table and REPORT.md"
    )
    p.add_argument("--out-dir", default="benchmarks/out")
    p.add_argument("--output", default="REPORT.md")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    from repro.validate.engine import InvariantViolationError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolationError as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        for violation in err.violations:
            print(f"  - {violation.describe()}", file=sys.stderr)
        if err.bundle_path:
            print(
                f"replay bundle written: {err.bundle_path}\n"
                f"reproduce with: python -m repro replay {err.bundle_path}",
                file=sys.stderr,
            )
        return 3
    except CampaignInterrupted as err:
        print(str(err), file=sys.stderr)
        if err.journal_path:
            print(
                f"journal flushed: {err.journal_path} "
                f"({err.completed}/{err.total} units checkpointed)",
                file=sys.stderr,
            )
        return 130
    except CampaignError as err:
        print(f"campaign aborted: {err}", file=sys.stderr)
        if err.failure.bundle_path:
            print(
                f"reproduce with: python -m repro replay "
                f"{err.failure.bundle_path}",
                file=sys.stderr,
            )
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
