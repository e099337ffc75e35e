"""Every campaign-run ``benchmarks/out`` table, one spec each.

:data:`TABLES` maps each table's name (its ``benchmarks/out/<name>.txt``)
to its spec builder, ``(scale, replications)`` → a
:class:`~repro.experiments.points.TableSpec`, in report order: Figs
7-11 (:data:`~repro.experiments.figures.FIGURES`), the §2 and §4.2.2
comparisons, the §6 studies and the ablations.  ``scale`` scales each
table's transfer sizes (1.0 is the size its benchmark runs).
:func:`~repro.experiments.points.run_specs` runs any set of them as
one campaign, so a config two tables read (quench, snoop and the TCP
variant ablation share BASIC and EBSN on the WAN; the granularity and
robust-timer ablations share their default-timer LAN runs) is
simulated once.

The study tables are built from the parameters the CLI varies too
(:func:`csdp_table`, :func:`handoff_table`, :func:`congestion_table`),
so ``repro csdp``, ``repro handoff`` and ``repro congestion`` print
these renderers over the points their flags select.  The
``*_means`` helpers reduce a study point to the numbers its table
prints, for the benchmarks' assertions.

:mod:`repro.experiments.figures` does not import this module, so a
figure's run loads no study module.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Sequence

from repro.csdp import CsdpStudyConfig
from repro.experiments.config import WAN_TRANSFER_BYTES, wan_scenario
from repro.experiments.congestion import CongestedScenarioConfig
from repro.experiments.figures import FIGURES
from repro.experiments.points import TableSpec, lan_point, table_renderer, wan_point
from repro.experiments.runner import StudyPoint
from repro.experiments.topology import Scheme
from repro.handoff import HandoffConfig, HandoffScheme
from repro.tcp import TcpConfig
from repro.workloads import InteractiveConfig

_KB = 1024


# ---------------------------------------------------------------------------
# §4.2.2 and §2: quench, snoop and split against EBSN
# ---------------------------------------------------------------------------


def _scheme_table(title: str, *schemes: Scheme) -> Callable[[float, int], TableSpec]:
    """A WAN table at 576 B and a 4 s bad period, one row per scheme."""

    def build(scale: float, replications: int) -> TableSpec:
        transfer = int(WAN_TRANSFER_BYTES * scale)
        return TableSpec(
            {s: wan_point(transfer, s, 576, 4.0) for s in schemes},
            table_renderer(
                title,
                "scheme   throughput(kbps)   goodput   timeouts/run",
                lambda scheme, r: f"{scheme.value:8s} {r.throughput_kbps:16.2f}"
                f"   {r.goodput_mean:7.3f}   {r.timeouts_mean:12.1f}",
            ),
        )

    return build


def _snoop_loss_regime(scale: float, replications: int) -> TableSpec:
    """Snoop's published gains came from (mostly) independent losses;
    the paper's point is that real fades are bursty.  Same average
    loss rate, two correlation structures."""
    transfer = int(50 * _KB * scale)
    points = {}
    for uniform in (False, True):
        for scheme in (Scheme.BASIC, Scheme.SNOOP, Scheme.EBSN):
            config = wan_point(transfer, scheme, 576, 1.0)
            channel = replace(config.channel, uniform=uniform)
            points[uniform, scheme] = replace(config, channel=channel)
    return TableSpec(
        points,
        table_renderer(
            "Loss correlation regime (same mean loss rate ~9%/frame):",
            "regime    scheme   tput(kbps)",
            lambda key, r: f"{'uniform' if key[0] else 'bursty':8s}  "
            f"{key[1].value:6s}  {r.throughput_kbps:10.2f}",
        ),
    )


# ---------------------------------------------------------------------------
# §2 and §6 studies: CSDP scheduling, wired congestion, handoff, keystrokes
# ---------------------------------------------------------------------------

CSDP_SCHEDULERS = ("fifo", "rr", "csdp")


def csdp_means(point: StudyPoint) -> Dict[str, float]:
    """A scheduler's per-run means, by the names its table prints."""
    results = point.results

    def avg(metric):
        return sum(metric(result) for result in results) / len(results)

    return {
        "agg_kbps": avg(lambda r: r.aggregate_throughput_bps) / 1000,
        "timeouts": avg(lambda r: r.total_timeouts),
        "blocked_s": avg(lambda r: r.radio.idle_blocked_time),
        "fairness": avg(lambda r: r.fairness_index),
    }


def _csdp_row(sched: str, point: StudyPoint) -> str:
    r = csdp_means(point)
    return (
        f"{sched:9s}   {r['agg_kbps']:15.2f}   {r['blocked_s']:11.1f}"
        f"   {r['timeouts']:8.1f}   {r['fairness']:8.3f}"
    )


def csdp_table(
    transfer_bytes: int, replications: int, connections: int = 4
) -> TableSpec:
    """Link-level scheduling of ``connections`` TCP connections, one
    row per scheduler."""
    return TableSpec(
        {
            sched: CsdpStudyConfig(
                scheduler=sched,
                n_connections=connections,
                transfer_bytes=transfer_bytes,
            )
            for sched in CSDP_SCHEDULERS
        },
        table_renderer(
            f"Link-level scheduling, {connections} TCP connections, "
            "independent fading\n"
            f"(good 4 s / bad 1 s per MH, {replications} seeds):",
            "scheduler   aggregate(kbps)   HOL-idle(s)   timeouts   fairness",
            _csdp_row,
        ),
    )


def congestion_means(point: StudyPoint) -> Dict[str, float]:
    """A congestion point's per-run means, by the names its table prints."""
    return dict(
        tput_kbps=point.mean(lambda r: r.metrics.throughput_bps) / 1000,
        drops=point.mean(lambda r: r.bottleneck_drops),
        marks=point.mean(lambda r: r.ecn_marks),
        responses=point.mean(lambda r: r.ecn_responses),
        timeouts=point.mean(lambda r: r.timeouts),
        fastrtx=point.mean(lambda r: r.fast_retransmits),
    )


def _congestion_row(key, point: StudyPoint) -> str:
    (scheme, ecn), r = key, congestion_means(point)
    return (
        f"{scheme.value:7s} {str(ecn):5s} {r['tput_kbps']:10.2f}"
        f"  {r['drops']:5.1f}  {r['marks']:5.0f}  {r['responses']:8.1f}"
        f"  {r['timeouts']:8.1f}  {r['fastrtx']:7.1f}"
    )


def congestion_table(transfer_bytes: int = 60 * _KB, load: float = 0.9) -> TableSpec:
    """Basic and EBSN, each with ECN off and on, across a wired
    bottleneck that CBR cross traffic loads to ``load``."""
    return TableSpec(
        {
            (scheme, ecn): CongestedScenarioConfig(
                scheme=scheme,
                ecn=ecn,
                cross_load=load,
                tcp=TcpConfig(transfer_bytes=transfer_bytes),
            )
            for scheme in (Scheme.BASIC, Scheme.EBSN)
            for ecn in (False, True)
        },
        table_renderer(
            f"Wired congestion ({load:.0%} cross load) x wireless fades "
            "(bad 1 s):",
            "scheme  ECN    tput(kbps)  drops  marks  ecn_resp  timeouts  fastrtx",
            _congestion_row,
        ),
    )


#: The handoff intervals (s) the benchmark sweeps.
HANDOFF_INTERVALS = (4.0, 8.0, 16.0)


def handoff_means(point: StudyPoint) -> Dict[str, float]:
    """A handoff point's per-run means, by the names its table prints."""
    return dict(
        tput_kbps=point.mean(lambda r: r.metrics.throughput_bps) / 1000,
        timeouts=point.mean(lambda r: r.timeouts),
        stall=point.mean(lambda r: r.stall_time_total),
    )


def _handoff_row(key, point: StudyPoint) -> str:
    (scheme, interval), r = key, handoff_means(point)
    return (
        f"{scheme.value:18s} {interval:11g}  {r['tput_kbps']:10.2f}"
        f"  {r['timeouts']:12.1f}  {r['stall']:8.1f}"
    )


def handoff_table(
    transfer_bytes: int,
    intervals: Sequence[float] = HANDOFF_INTERVALS,
    disconnect: float = 0.3,
) -> TableSpec:
    """Every handoff recovery scheme at every handoff interval, each
    handoff a ``disconnect``-second outage."""
    return TableSpec(
        {
            (scheme, interval): HandoffConfig(
                scheme=scheme,
                handoff_interval=interval,
                disconnect_time=disconnect,
                transfer_bytes=transfer_bytes,
            )
            for scheme in HandoffScheme
            for interval in intervals
        },
        table_renderer(
            f"Handoff recovery, {disconnect * 1000:.0f} ms disconnections, "
            f"{transfer_bytes / _KB:g} KB transfer:",
            "scheme             interval(s)  tput(kbps)  timeouts/run  stall(s)",
            _handoff_row,
        ),
    )


def interactive_means(point: StudyPoint) -> Dict[str, float]:
    """A variant's keystroke latencies (s) and timeouts per run: the
    means over runs, and the worst keystroke of any run."""
    return dict(
        mean=point.mean(lambda r: r.latency.mean),
        p95=point.mean(lambda r: r.latency.p95),
        worst=max(r.latency.worst for r in point.results),
        timeouts=point.mean(lambda r: r.timeouts),
    )


def _interactive_row(label: str, point: StudyPoint) -> str:
    r = interactive_means(point)
    return (
        f"{label:18s} {r['mean'] * 1000:8.0f}   {r['p95'] * 1000:7.0f}"
        f"   {r['worst'] * 1000:9.0f}   {r['timeouts']:12.1f}"
    )


def _interactive_latency(scale: float, replications: int) -> TableSpec:
    keystrokes = max(50, int(300 * scale))
    variants = {
        "basic": dict(scheme=Scheme.BASIC),
        "local recovery": dict(scheme=Scheme.LOCAL_RECOVERY),
        "EBSN": dict(scheme=Scheme.EBSN),
        "EBSN + heartbeat": dict(scheme=Scheme.EBSN, ebsn_heartbeat=0.15),
    }
    return TableSpec(
        {
            label: InteractiveConfig(keystrokes=keystrokes, **variant)
            for label, variant in variants.items()
        },
        table_renderer(
            f"Keystroke latency over the fading WAN path ({keystrokes} keys/run,\n"
            f"bad period 2 s, {replications} seeds):",
            "variant            mean(ms)   p95(ms)   worst(ms)   timeouts/run",
            _interactive_row,
        ),
    )


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def _wan_arq(transfer: int, packet_size: int, bad_period: float, **arq):
    """An EBSN WAN config with its derived ARQ parameters overridden."""
    base = wan_point(transfer, Scheme.EBSN, packet_size, bad_period)
    return replace(base, arq=replace(base.derived_arq(), **arq))


def _with_tcp(config, **tcp):
    return replace(config, tcp=replace(config.tcp, **tcp))


def _lan_timer(scale: float, scheme: Scheme, **tcp):
    """A 2 MB LAN config at a 1.2 s bad period, TCP timer fields overridden."""
    transfer = int(2 * _KB * _KB * scale)
    return _with_tcp(lan_point(transfer, scheme, 1.2), **tcp)


#: The TCP clock granularities (s) of the granularity ablation.
CLOCK_GRANULARITIES = (0.1, 0.3, 0.5)


def _ablation_granularity(scale: float, replications: int) -> TableSpec:
    return TableSpec(
        {
            (scheme, g): _lan_timer(scale, scheme, clock_granularity=g)
            for scheme in (Scheme.LOCAL_RECOVERY, Scheme.EBSN)
            for g in CLOCK_GRANULARITIES
        },
        table_renderer(
            "Ablation: TCP clock granularity (LAN, bad period 1.2 s):",
            "scheme           granularity   timeouts/run   throughput(Mbps)",
            lambda key, r: f"{key[0].value:16s} {key[1]:11.1f}"
            f"   {r.timeouts_mean:12.1f}   {r.throughput_mbps:16.3f}",
        ),
    )


def _ablation_robust_timer(scale: float, replications: int) -> TableSpec:
    lr = Scheme.LOCAL_RECOVERY
    return TableSpec(
        {
            "jacobson k=4": _lan_timer(scale, lr, rto_k=4.0),
            "robust k=8": _lan_timer(scale, lr, rto_k=8.0),
            "robust k=8 + peak-hold": _lan_timer(
                scale, lr, rto_k=8.0, rto_var_decay_gain=0.05
            ),
            "EBSN (k=4)": _lan_timer(scale, Scheme.EBSN, rto_k=4.0),
        },
        table_renderer(
            "Robust source timers vs EBSN (LAN, local recovery, bad 1.2 s):",
            "variant                   tput(Mbps)   timeouts/run   retx(KB)",
            lambda label, r: f"{label:25s} {r.throughput_mbps:10.3f}"
            f"   {r.timeouts_mean:12.1f}   {r.retransmitted_kbytes_mean:8.1f}",
        ),
    )


#: The ARQ attempt limits of the RTmax ablation (CDPD's is 13).
_ATTEMPT_LIMITS = (1, 3, 7, 13, 25)


def _ablation_rtmax(scale: float, replications: int) -> TableSpec:
    transfer = int(WAN_TRANSFER_BYTES * scale)
    return TableSpec(
        {rtmax: _wan_arq(transfer, 576, 4.0, rtmax=rtmax) for rtmax in _ATTEMPT_LIMITS},
        table_renderer(
            "Ablation: ARQ RTmax under EBSN (WAN, 576 B, bad period 4 s):",
            "rtmax   throughput(kbps)   goodput   retransmitted(KB)",
            lambda rtmax, r: f"{rtmax:5d}   {r.throughput_kbps:16.2f}"
            f"   {r.goodput_mean:7.3f}   {r.retransmitted_kbytes_mean:17.1f}",
        ),
    )


#: The TCP variants of the variant ablation.
TCP_VARIANTS = ("tahoe", "reno", "newreno")


def _ablation_tcp_variant(scale: float, replications: int) -> TableSpec:
    transfer = int(WAN_TRANSFER_BYTES * scale)
    return TableSpec(
        {
            (variant, scheme): wan_scenario(
                scheme=scheme,
                packet_size=576,
                bad_period_mean=4.0,
                transfer_bytes=transfer,
                tcp_variant=variant,
                record_trace=False,
            )
            for variant in TCP_VARIANTS
            for scheme in (Scheme.BASIC, Scheme.EBSN)
        },
        table_renderer(
            "TCP variant x recovery mechanism (WAN, 576 B, bad period 4 s):",
            "variant   scheme   tput(kbps)   timeouts/run",
            lambda key, r: f"{key[0]:8s}  {key[1].value:6s}"
            f"  {r.throughput_kbps:10.2f}   {r.timeouts_mean:12.1f}",
        ),
    )


def _ablation_arq_window(scale: float, replications: int) -> TableSpec:
    transfer = int(WAN_TRANSFER_BYTES * scale)
    return TableSpec(
        {w: _wan_arq(transfer, 1536, 1.0, window=w) for w in (1, 2, 4, 8)},
        table_renderer(
            "ARQ pipelining depth under EBSN (WAN, 1536 B, bad period 1 s):",
            "window   tput(kbps)   goodput",
            lambda window, r: f"{window:6d}   {r.throughput_kbps:10.2f}"
            f"   {r.goodput_mean:7.3f}",
        ),
    )


#: The advertised windows (B) of the window ablation.
TCP_WINDOWS = (576, 2048, 4096, 16 * 1024)


def _ablation_window(scale: float, replications: int) -> TableSpec:
    transfer = int(WAN_TRANSFER_BYTES * scale)
    return TableSpec(
        {
            (window, scheme): _with_tcp(
                wan_point(transfer, scheme, 576, 2.0), window_bytes=window
            )
            for window in TCP_WINDOWS
            for scheme in (Scheme.BASIC, Scheme.EBSN)
        },
        table_renderer(
            "TCP window ablation (WAN, 576 B packets, bad period 2 s):",
            "window(B)  scheme   tput(kbps)   timeouts/run   duration(s)",
            lambda key, r: f"{key[0]:9d}  {key[1].value:6s}  {r.throughput_kbps:10.2f}"
            f"   {r.timeouts_mean:12.1f}   {r.duration_mean:11.1f}",
        ),
    )


#: Every campaign-run table by name, in report order: each builds its
#: spec from ``(scale, replications)``.
TABLES: Dict[str, Callable[[float, int], TableSpec]] = {
    "fig7_wan_basic": FIGURES[7],
    "fig8_wan_ebsn": FIGURES[8],
    "fig9_wan_retx": FIGURES[9],
    "fig10_lan_tput": FIGURES[10],
    "fig11_lan_retx": FIGURES[11],
    "quench_negative": _scheme_table(
        "Source quench vs EBSN (WAN, 576 B packets, bad period 4 s):",
        Scheme.BASIC,
        Scheme.QUENCH,
        Scheme.EBSN,
    ),
    "snoop_vs_ebsn": _scheme_table(
        "Snoop-style agent vs EBSN (WAN, 576 B, bad period 4 s, bursty):",
        Scheme.BASIC,
        Scheme.SNOOP,
        Scheme.SPLIT,
        Scheme.EBSN,
    ),
    "csdp_scheduling": lambda scale, reps: csdp_table(int(50 * _KB * scale), reps),
    "congestion_ecn_ebsn": lambda scale, reps: congestion_table(int(60 * _KB * scale)),
    "handoff_schemes": lambda scale, reps: handoff_table(int(100 * _KB * scale)),
    "ablation_granularity": _ablation_granularity,
    "ablation_rtmax": _ablation_rtmax,
    "ablation_robust_timer": _ablation_robust_timer,
    "ablation_tcp_variant": _ablation_tcp_variant,
    "ablation_arq_window": _ablation_arq_window,
    "ablation_window": _ablation_window,
    "snoop_loss_regime": _snoop_loss_regime,
    "interactive_latency": _interactive_latency,
}
