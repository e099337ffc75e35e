"""One spec per paper figure.

Figs 3-5 are single deterministic runs (:func:`trace_figure`), and
:data:`TRACES` renders their four ``benchmarks/out`` tables.  Each of
Figs 7-11 is a :class:`~repro.experiments.points.TableSpec` built by
:data:`FIGURES`: the WAN or LAN configs it plots, keyed
``("wan", scheme, packet_size, bad_period)`` or
``("lan", scheme, bad_period)``, and the renderer that prints them as
its ``benchmarks/out`` table.  Given several figures' specs,
:func:`~repro.experiments.points.run_specs` runs the union of their
configs as one campaign, so a config two figures share (every one of
Fig 9's is one of Fig 7's or Fig 8's; Fig 11 plots Fig 10's) is
simulated once.  The registry of every campaign-run table,
:mod:`repro.experiments.tables`, holds these five too.

Transfer sizes can be scaled down (``scale``) to trade fidelity for
runtime; 1.0 is the paper's.  :func:`figure_8` keeps Fig 8's grid as
its own campaign over any sizes and bad periods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional

from repro.experiments.ascii_plot import plot_series
from repro.experiments.config import (
    LAN_BAD_PERIODS,
    LAN_GOOD_PERIOD,
    LAN_TRANSFER_BYTES,
    WAN_BAD_PERIODS,
    WAN_GOOD_PERIOD,
    WAN_PACKET_SIZES,
    WAN_TRANSFER_BYTES,
    lan_wireless,
    trace_example_scenario,
)
from repro.experiments.points import (
    Results,
    TableSpec,
    lan_point,
    wan_point,
)
from repro.experiments.runner import ReplicatedResult, sweep_campaign
from repro.experiments.topology import ScenarioResult, Scheme, run_scenario
from repro.metrics.theoretical import theoretical_throughput_bps
from repro.net.wireless import WirelessLinkConfig


def wan_theoretical_kbps(bad_period_mean: float) -> float:
    """tput_th for the WAN study (12.8 kbps effective), in kbit/s."""
    bandwidth = WirelessLinkConfig().effective_bandwidth_bps
    return theoretical_throughput_bps(bandwidth, WAN_GOOD_PERIOD, bad_period_mean) / 1e3


def lan_theoretical_mbps(bad_period_mean: float) -> float:
    """tput_th for the LAN study (2 Mbps), in Mbit/s."""
    bandwidth = lan_wireless().effective_bandwidth_bps
    return theoretical_throughput_bps(bandwidth, LAN_GOOD_PERIOD, bad_period_mean) / 1e6


# ---------------------------------------------------------------------------
# Figures 3-5: the deterministic trace example
# ---------------------------------------------------------------------------

#: Figs 3-5 by number: the scheme each traces, and its table's title.
_TRACE_FIGURES = {
    3: (Scheme.BASIC, "Figure 3: Basic TCP (deterministic example)"),
    4: (Scheme.LOCAL_RECOVERY, "Figure 4: Local recovery (link-layer ARQ at the BS)"),
    5: (Scheme.EBSN, "Figure 5: Explicit feedback (EBSN)"),
}


def trace_figure(
    figure_number: int, validate: Optional[bool] = None
) -> ScenarioResult:
    """Run the §4.2.1 example for Fig 3 (basic), 4 (local), or 5 (EBSN)."""
    if figure_number not in _TRACE_FIGURES:
        raise ValueError(f"trace figures are 3, 4, 5; got {figure_number}")
    config = trace_example_scenario(_TRACE_FIGURES[figure_number][0])
    return run_scenario(config, validate=validate)


def trace_header(title: str, result: ScenarioResult) -> str:
    """A trace table's header: ``title``, then the run's metrics line."""
    m = result.metrics
    return (
        f"{title}\n"
        f"duration={m.duration:.1f}s  throughput={m.throughput_kbps:.2f} kbps  "
        f"goodput={m.goodput * 100:.1f}%  timeouts={m.timeouts}  "
        f"source retransmissions={m.retransmissions}"
    )


def trace_table(figure_number: int, result: ScenarioResult) -> str:
    """Fig ``figure_number``'s table over its :func:`trace_figure` run."""
    title = _TRACE_FIGURES[figure_number][1]
    return f"{trace_header(title, result)}\n" + result.trace.render(width=100)


def _trace_summary(results: Mapping[int, ScenarioResult]) -> str:
    lines = ["Figs 3-5 summary (deterministic 10s good / 4s bad):", ""]
    for n, label in ((3, "basic"), (4, "local recovery"), (5, "EBSN")):
        m = results[n].metrics
        lines.append(
            f"  fig {n} {label:15s} tput={m.throughput_kbps:5.2f} kbps  "
            f"goodput={m.goodput * 100:5.1f}%  timeouts={m.timeouts:2d}  "
            f"retx={m.retransmissions:3d}"
        )
    return "\n".join(lines)


#: Every trace table by name, in report order, as its renderer over
#: the runs it reads (figure number → :func:`trace_figure` result).
TRACES: Dict[str, Callable[[Mapping[int, ScenarioResult]], str]] = {
    "fig3_5_summary": _trace_summary,
    "fig3_trace_basic": lambda results: trace_table(3, results[3]),
    "fig4_trace_local_recovery": lambda results: trace_table(4, results[4]),
    "fig5_trace_ebsn": lambda results: trace_table(5, results[5]),
}


# ---------------------------------------------------------------------------
# Figures 7-11: the WAN packet-size and LAN bad-period sweeps
# ---------------------------------------------------------------------------

def _wan_configs(scale: float, *schemes: Scheme) -> dict:
    transfer = int(WAN_TRANSFER_BYTES * scale)
    return {
        ("wan", s, size, bad): wan_point(transfer, s, size, bad)
        for s in schemes
        for bad in WAN_BAD_PERIODS
        for size in WAN_PACKET_SIZES
    }


def _lan_configs(scale: float) -> dict:
    transfer = int(LAN_TRANSFER_BYTES * scale)
    return {
        ("lan", s, bad): lan_point(transfer, s, bad)
        for s in (Scheme.BASIC, Scheme.EBSN)
        for bad in LAN_BAD_PERIODS
    }


def _heading(title: str, scale: float, replications: int) -> List[str]:
    return [title, f"(transfer scale {scale:g}, {replications} replications/point)"]


def _wan_size_header() -> str:
    return "size(B)  " + "  ".join(f"bad={b:g}s" for b in WAN_BAD_PERIODS)


def _render_wan_throughput(
    scheme: Scheme, title: str, results: Results, scale: float, replications: int
) -> str:
    """Figs 7 and 8: kbps per packet size (rows) and bad period (columns),
    tput_th, and the curves."""

    def tput(bad, size):
        return results["wan", scheme, size, bad].throughput_kbps

    lines = _heading(title, scale, replications) + ["", _wan_size_header()]
    for size in WAN_PACKET_SIZES:
        row = [f"{size:7d}"] + [f"{tput(bad, size):7.2f}" for bad in WAN_BAD_PERIODS]
        lines.append("  ".join(row))
    lines.append(
        "tput_th  "
        + "  ".join(f"{wan_theoretical_kbps(b):7.2f}" for b in WAN_BAD_PERIODS)
    )
    curves = {
        f"bad={b:g}s": [(size, tput(b, size)) for size in WAN_PACKET_SIZES]
        for b in WAN_BAD_PERIODS
    }
    lines.append("")
    lines.append(
        plot_series(curves, width=72, height=14, x_label="packet size (B)",
                    y_label="throughput (kbps)", y_min=0.0)
    )
    return "\n".join(lines)


def _render_fig9(results: Results, scale: float, replications: int) -> str:
    lines = _heading(
        "Figure 9: data retransmitted (KB) vs packet size, 100 KB transfer",
        scale,
        replications,
    )
    for scheme in (Scheme.BASIC, Scheme.EBSN):
        lines += ["", f"-- {scheme.value} --", _wan_size_header()]
        for size in WAN_PACKET_SIZES:
            row = [f"{size:7d}"]
            for bad in WAN_BAD_PERIODS:
                retx = results["wan", scheme, size, bad].retransmitted_kbytes_mean
                row.append(f"{retx:7.1f}")
            lines.append("  ".join(row))
    return "\n".join(lines)


def _render_fig10(results: Results, scale: float, replications: int) -> str:
    def tput(scheme, bad):
        return results["lan", scheme, bad].throughput_mbps

    lines = _heading(
        "Figure 10: LAN throughput (Mbps) vs mean bad period, 4 MB transfer",
        scale,
        replications,
    ) + ["", "bad(s)   theoretical   basic TCP   EBSN    EBSN/basic"]
    for bad in LAN_BAD_PERIODS:
        basic, ebsn = tput(Scheme.BASIC, bad), tput(Scheme.EBSN, bad)
        lines.append(
            f"{bad:6.1f}   {lan_theoretical_mbps(bad):11.3f}   {basic:9.3f}"
            f"   {ebsn:5.3f}   {ebsn / basic:9.2f}x"
        )
    curves = {
        "theoretical": [(b, lan_theoretical_mbps(b)) for b in LAN_BAD_PERIODS],
        "EBSN": [(b, tput(Scheme.EBSN, b)) for b in LAN_BAD_PERIODS],
        "basic": [(b, tput(Scheme.BASIC, b)) for b in LAN_BAD_PERIODS],
    }
    lines.append("")
    lines.append(
        plot_series(curves, width=64, height=14, x_label="mean bad period (s)",
                    y_label="throughput (Mbps)", y_min=0.0)
    )
    return "\n".join(lines)


def _render_fig11(results: Results, scale: float, replications: int) -> str:
    lines = _heading(
        "Figure 11: LAN data retransmitted (KB) vs mean bad period, 4 MB transfer",
        scale,
        replications,
    ) + ["", "bad(s)   basic TCP(KB)   EBSN(KB)   basic goodput   EBSN goodput"]
    for bad in LAN_BAD_PERIODS:
        b = results["lan", Scheme.BASIC, bad]
        e = results["lan", Scheme.EBSN, bad]
        lines.append(
            f"{bad:6.1f}   {b.retransmitted_kbytes_mean:13.1f}"
            f"   {e.retransmitted_kbytes_mean:8.1f}   {b.goodput_mean:13.3f}"
            f"   {e.goodput_mean:12.3f}"
        )
    return "\n".join(lines)


def _figure(
    configs: Callable[[float], dict], render: Callable[..., str]
) -> Callable[[float, int], TableSpec]:
    """The spec builder of a figure that plots ``configs(scale)``:
    ``(scale, replications)`` → its :class:`TableSpec`."""
    return lambda scale, replications: TableSpec(
        configs(scale), partial(render, scale=scale, replications=replications)
    )


#: Figs 7-11 by number, each as its spec builder.
FIGURES: Dict[int, Callable[[float, int], TableSpec]] = {
    7: _figure(
        lambda scale: _wan_configs(scale, Scheme.BASIC),
        partial(
            _render_wan_throughput,
            Scheme.BASIC,
            "Figure 7: Basic TCP (wide-area): throughput (kbps) vs packet size",
        ),
    ),
    8: _figure(
        lambda scale: _wan_configs(scale, Scheme.EBSN),
        partial(
            _render_wan_throughput,
            Scheme.EBSN,
            "Figure 8: EBSN (wide-area): throughput (kbps) vs packet size",
        ),
    ),
    9: _figure(
        lambda scale: _wan_configs(scale, Scheme.BASIC, Scheme.EBSN), _render_fig9
    ),
    10: _figure(_lan_configs, _render_fig10),
    11: _figure(_lan_configs, _render_fig11),
}


@dataclass
class SweepSeries:
    """One plotted curve: x values → aggregated results."""

    label: str
    points: Dict[float, ReplicatedResult] = field(default_factory=dict)


def figure_8(
    replications: int = 3,
    packet_sizes: Optional[List[int]] = None,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = WAN_TRANSFER_BYTES,
    **campaign,
) -> Dict[float, SweepSeries]:
    """Fig 8 over any grid: EBSN throughput vs packet size, one curve
    per bad period (by default the paper's sizes and bad periods).

    The whole grid is one campaign; ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`.
    """
    packet_sizes = packet_sizes or WAN_PACKET_SIZES
    bad_periods = bad_periods or WAN_BAD_PERIODS
    points = sweep_campaign(
        [(bad, size) for bad in bad_periods for size in packet_sizes],
        lambda point: wan_point(transfer_bytes, Scheme.EBSN, point[1], point[0]),
        replications,
        **campaign,
    ).points
    return {
        bad: SweepSeries(
            label=f"bad period = {bad:g} sec",
            points={size: points[bad, size] for size in packet_sizes},
        )
        for bad in bad_periods
    }
