"""One spec per paper figure.

Figs 3-5 are single deterministic runs (:func:`trace_figure`).  Each of
Figs 7-11 is a :class:`~repro.experiments.points.TableSpec` built by
:data:`FIGURES`: the points it plots, in the point vocabulary the
claims use (:mod:`repro.experiments.points`), and the renderer that
prints them as its ``benchmarks/out`` table.  :func:`paper_figures`
runs the union of the requested figures' points as one campaign, so a
point two figures share (every point of Fig 9 is one of Fig 7's or
Fig 8's; Fig 11 plots Fig 10's) is simulated once.  The registry of
every campaign-run table, :mod:`repro.experiments.tables`, holds these
five too.

Transfer sizes can be scaled down (``scale``) to trade fidelity for
runtime; 1.0 is the paper's.  :func:`figure_8` keeps Fig 8's grid as
its own campaign over any sizes and bad periods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.experiments.ascii_plot import plot_series
from repro.experiments.config import (
    LAN_BAD_PERIODS,
    LAN_GOOD_PERIOD,
    WAN_BAD_PERIODS,
    WAN_GOOD_PERIOD,
    WAN_PACKET_SIZES,
    WAN_TRANSFER_BYTES,
    trace_example_scenario,
)
from repro.experiments.points import (
    Point,
    Results,
    TableSpec,
    point_config,
    run_specs,
    wan_point,
)
from repro.experiments.runner import ReplicatedResult, SweepCampaign, sweep_campaign
from repro.experiments.topology import ScenarioResult, Scheme, run_scenario
from repro.metrics.theoretical import theoretical_throughput_bps


def wan_theoretical_kbps(bad_period_mean: float) -> float:
    """tput_th for the WAN study (12.8 kbps effective), in kbit/s."""
    return (
        theoretical_throughput_bps(12_800.0, WAN_GOOD_PERIOD, bad_period_mean) / 1000.0
    )


def lan_theoretical_mbps(bad_period_mean: float) -> float:
    """tput_th for the LAN study (2 Mbps), in Mbit/s."""
    return theoretical_throughput_bps(2e6, LAN_GOOD_PERIOD, bad_period_mean) / 1e6


# ---------------------------------------------------------------------------
# Figures 3-5: the deterministic trace example
# ---------------------------------------------------------------------------

_TRACE_SCHEMES = {
    3: Scheme.BASIC,
    4: Scheme.LOCAL_RECOVERY,
    5: Scheme.EBSN,
}


def trace_figure(
    figure_number: int, validate: Optional[bool] = None
) -> ScenarioResult:
    """Run the §4.2.1 example for Fig 3 (basic), 4 (local), or 5 (EBSN)."""
    if figure_number not in _TRACE_SCHEMES:
        raise ValueError(f"trace figures are 3, 4, 5; got {figure_number}")
    config = trace_example_scenario(_TRACE_SCHEMES[figure_number])
    return run_scenario(config, validate=validate)


# ---------------------------------------------------------------------------
# Figures 7-11: the WAN packet-size and LAN bad-period sweeps
# ---------------------------------------------------------------------------

def _wan_points(*schemes: Scheme) -> Tuple[Point, ...]:
    return tuple(
        ("wan", s, size, bad)
        for s in schemes
        for bad in WAN_BAD_PERIODS
        for size in WAN_PACKET_SIZES
    )


def _lan_points() -> Tuple[Point, ...]:
    return tuple(
        ("lan", s, bad) for s in (Scheme.BASIC, Scheme.EBSN) for bad in LAN_BAD_PERIODS
    )


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
    points: Tuple[Point, ...], render: Callable[..., str]
) -> Callable[[float, int], TableSpec]:
    """The spec builder of a figure that plots ``points``:
    ``(scale, replications)`` → its :class:`TableSpec`."""
    return lambda scale, replications: TableSpec(
        {point: point_config(point, scale) for point in points},
        partial(render, scale=scale, replications=replications),
    )


#: Figs 7-11 by number, each as its spec builder.
FIGURES: Dict[int, Callable[[float, int], TableSpec]] = {
    7: _figure(
        _wan_points(Scheme.BASIC),
        partial(
            _render_wan_throughput,
            Scheme.BASIC,
            "Figure 7: Basic TCP (wide-area): throughput (kbps) vs packet size",
        ),
    ),
    8: _figure(
        _wan_points(Scheme.EBSN),
        partial(
            _render_wan_throughput,
            Scheme.EBSN,
            "Figure 8: EBSN (wide-area): throughput (kbps) vs packet size",
        ),
    ),
    9: _figure(_wan_points(Scheme.BASIC, Scheme.EBSN), _render_fig9),
    10: _figure(_lan_points(), _render_fig10),
    11: _figure(_lan_points(), _render_fig11),
}


def paper_figures(
    numbers: Iterable[int], scale: float = 1.0, replications: int = 5, **campaign
) -> Tuple[Dict[int, str], SweepCampaign]:
    """Figs ``numbers`` (of 7-11) at a transfer ``scale``: each one's
    table by number, and the campaign behind them.

    Every distinct point of every requested figure runs once, over
    ``replications`` seeds, as one campaign (:func:`run_specs`);
    ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`.
    """
    specs = {n: FIGURES[n](scale, replications) for n in numbers}
    results, campaign = run_specs(specs, replications, **campaign)
    return {n: spec.render(results[n]) for n, spec in specs.items()}, campaign


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
