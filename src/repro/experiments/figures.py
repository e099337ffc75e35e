"""One entry point per paper figure.

Each ``figure_N`` function runs the experiment behind that figure and
returns the plotted data series (plus the theoretical-maximum lines
where the paper draws them).  The benchmark harness calls these and
prints the same rows the paper plots; EXPERIMENTS.md records the
comparison.

Transfer sizes can be scaled down (``transfer_bytes``) to trade
fidelity for runtime; defaults are the paper's.  Each of Figs 7-11
submits every seeded unit of every plotted point as one campaign
(:func:`~repro.experiments.runner.sweep_campaign`) and forwards its
``**campaign`` keywords to
:class:`~repro.experiments.parallel.ParallelRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.config import (
    LAN_BAD_PERIODS,
    LAN_GOOD_PERIOD,
    LAN_TRANSFER_BYTES,
    WAN_BAD_PERIODS,
    WAN_GOOD_PERIOD,
    WAN_PACKET_SIZES,
    WAN_TRANSFER_BYTES,
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.faults import CompletenessReport
from repro.experiments.runner import ReplicatedResult, sweep_campaign
from repro.experiments.topology import ScenarioResult, Scheme, run_scenario
from repro.metrics.theoretical import theoretical_throughput_bps


@dataclass
class SweepSeries:
    """One plotted curve: x values → aggregated results."""

    label: str
    points: Dict[float, ReplicatedResult] = field(default_factory=dict)

    @property
    def report(self) -> Optional[CompletenessReport]:
        """Completeness of the campaign behind this curve; every curve
        of one figure shares it."""
        return next((r.report for r in self.points.values()), None)

    def throughputs_kbps(self) -> List[float]:
        """The curve's y-values in kbit/s, in x order."""
        return [r.throughput_kbps for r in self.points.values()]

    def retransmitted_kbytes(self) -> List[float]:
        """The curve's retransmitted-KB values, in x order."""
        return [r.retransmitted_kbytes_mean for r in self.points.values()]


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
# Figures 7-9: WAN packet-size sweeps
# ---------------------------------------------------------------------------


def _wan_packet_sweep(
    schemes: List[Scheme],
    bad_periods: List[float],
    packet_sizes: List[int],
    replications: int,
    transfer_bytes: int,
    **campaign,
) -> Dict[str, Dict[float, SweepSeries]]:
    """Every ``(scheme, bad, size)`` point as one campaign, regrouped
    into one curve per bad period for each scheme (keyed by name)."""
    grid = [
        (s, bad, size) for s in schemes for bad in bad_periods for size in packet_sizes
    ]
    points = sweep_campaign(
        grid,
        lambda point: wan_scenario(
            scheme=point[0],
            bad_period_mean=point[1],
            packet_size=point[2],
            transfer_bytes=transfer_bytes,
            record_trace=False,
        ),
        replications,
        **campaign,
    ).points
    return {
        s.value: {
            bad: SweepSeries(
                label=f"bad period = {bad:g} sec",
                points={size: points[s, bad, size] for size in packet_sizes},
            )
            for bad in bad_periods
        }
        for s in schemes
    }


def figure_7(
    replications: int = 3,
    packet_sizes: Optional[List[int]] = None,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = WAN_TRANSFER_BYTES,
    **campaign,
) -> Dict[float, SweepSeries]:
    """Fig 7: basic TCP throughput vs packet size, one curve per bad period.

    The whole figure is one campaign; ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`.
    """
    return _wan_packet_sweep(
        [Scheme.BASIC],
        bad_periods or WAN_BAD_PERIODS,
        packet_sizes or WAN_PACKET_SIZES,
        replications,
        transfer_bytes,
        **campaign,
    )[Scheme.BASIC.value]


def figure_8(
    replications: int = 3,
    packet_sizes: Optional[List[int]] = None,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = WAN_TRANSFER_BYTES,
    **campaign,
) -> Dict[float, SweepSeries]:
    """Fig 8: EBSN throughput vs packet size, one curve per bad period.

    The whole figure is one campaign; ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`.
    """
    return _wan_packet_sweep(
        [Scheme.EBSN],
        bad_periods or WAN_BAD_PERIODS,
        packet_sizes or WAN_PACKET_SIZES,
        replications,
        transfer_bytes,
        **campaign,
    )[Scheme.EBSN.value]


def figure_9(
    replications: int = 3,
    packet_sizes: Optional[List[int]] = None,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = WAN_TRANSFER_BYTES,
    **campaign,
) -> Dict[str, Dict[float, SweepSeries]]:
    """Fig 9: data retransmitted vs packet size — basic TCP vs EBSN.

    Both schemes run in one campaign; ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`.
    """
    return _wan_packet_sweep(
        [Scheme.BASIC, Scheme.EBSN],
        bad_periods or WAN_BAD_PERIODS,
        packet_sizes or WAN_PACKET_SIZES,
        replications,
        transfer_bytes,
        **campaign,
    )


def wan_theoretical_kbps(bad_period_mean: float) -> float:
    """tput_th for the WAN study (12.8 kbps effective), in kbit/s."""
    return (
        theoretical_throughput_bps(12_800.0, WAN_GOOD_PERIOD, bad_period_mean) / 1000.0
    )


# ---------------------------------------------------------------------------
# Figures 10-11: LAN bad-period sweeps
# ---------------------------------------------------------------------------


def _lan_bad_sweep(
    schemes: List[Scheme],
    bad_periods: List[float],
    replications: int,
    transfer_bytes: int,
    **campaign,
) -> Dict[str, SweepSeries]:
    """Every ``(scheme, bad)`` point as one campaign, one curve per scheme."""
    points = sweep_campaign(
        [(s, bad) for s in schemes for bad in bad_periods],
        lambda point: lan_scenario(
            scheme=point[0], bad_period_mean=point[1], transfer_bytes=transfer_bytes
        ),
        replications,
        **campaign,
    ).points
    return {
        s.value: SweepSeries(
            label=s.value, points={bad: points[s, bad] for bad in bad_periods}
        )
        for s in schemes
    }


def figure_10(
    replications: int = 3,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = LAN_TRANSFER_BYTES,
    **campaign,
) -> Dict[str, SweepSeries]:
    """Fig 10: LAN throughput vs bad period — basic vs EBSN (+ tput_th).

    Both schemes run in one campaign; ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`.
    """
    return _lan_bad_sweep(
        [Scheme.BASIC, Scheme.EBSN],
        bad_periods or LAN_BAD_PERIODS,
        replications,
        transfer_bytes,
        **campaign,
    )


def figure_11(
    replications: int = 3,
    transfer_bytes: int = LAN_TRANSFER_BYTES,
    **campaign,
) -> Dict[str, SweepSeries]:
    """Fig 11: LAN data retransmitted vs bad period — basic vs EBSN.

    The same campaign as :func:`figure_10`.
    """
    return figure_10(replications, transfer_bytes=transfer_bytes, **campaign)


def lan_theoretical_mbps(bad_period_mean: float) -> float:
    """tput_th for the LAN study (2 Mbps), in Mbit/s."""
    return theoretical_throughput_bps(2e6, LAN_GOOD_PERIOD, bad_period_mean) / 1e6
