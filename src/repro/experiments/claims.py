"""Programmatic validation of every claim this reproduction makes.

Each :class:`Claim` pairs a sentence from the paper (or from our
EXPERIMENTS.md) with an executable check.  ``python -m repro validate``
runs them all and prints a ✓/✗ report — the artifact-evaluation view
of the repository.  Checks run at a configurable scale: the default is
sized for ~a minute of wall clock; the benchmarks remain the
full-scale ground truth.

A simulated claim builds its configs as the tables do
(:mod:`repro.experiments.points`, :mod:`repro.experiments.tables`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Hashable, List, Tuple

from repro.experiments.config import (
    LAN_TRANSFER_BYTES,
    WAN_TRANSFER_BYTES,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.figures import lan_theoretical_mbps, wan_theoretical_kbps
from repro.experiments.points import TableSpec, lan_point, run_specs, wan_point
from repro.experiments.tables import TABLES, handoff_table
from repro.experiments.topology import Scheme, run_scenario
from repro.handoff import HandoffScheme

#: A claim's config at a transfer scale.
ConfigBuilder = Callable[[float], Any]


@dataclass(frozen=True)
class ClaimResult:
    passed: bool
    detail: str


@dataclass(frozen=True)
class Claim:
    """A sentence from the paper plus the check that certifies it.

    A simulated claim lists builders of the ``configs`` it reads, and
    its ``check`` judges their results in the same order:
    ``check(results, seeds)``, with a
    :class:`~repro.experiments.runner.ReplicatedResult` per Fig. 2
    config and a :class:`~repro.experiments.runner.StudyPoint` per
    study config.  A claim without configs runs its own single
    simulation: ``check(scale, seeds)``.
    """

    id: str
    source: str
    statement: str
    check: Callable[..., ClaimResult]
    configs: Tuple[ConfigBuilder, ...] = ()

    def spec(self, scale: float, seeds: int) -> TableSpec:
        """This claim's configs at ``scale``, and its check over their
        results in place of a renderer."""
        return TableSpec(
            {i: build(scale) for i, build in enumerate(self.configs)},
            lambda results: self.check(list(results.values()), seeds),
        )

    def evaluate(self, scale: float = 0.3, seeds: int = 3) -> ClaimResult:
        """Run this claim's check (and only its own configs) at the given scale."""
        return _judge([self], scale, seeds)[0]


def _judge(claims: List[Claim], scale: float, seeds: int) -> List[ClaimResult]:
    """Every claim's result; the configs of the simulated ones,
    deduplicated, run over ``seeds`` seeds as one campaign first."""
    specs = {c.id: c.spec(scale, seeds) for c in claims if c.configs}
    results, _ = run_specs(specs, seeds)
    return [
        specs[c.id].render(results[c.id]) if c.configs else c.check(scale, seeds)
        for c in claims
    ]


def _wan(scheme: Scheme, packet_size: int = 576) -> ConfigBuilder:
    """A WAN config at the 4 s mean bad period every WAN claim reads."""
    return lambda scale: wan_point(
        int(WAN_TRANSFER_BYTES * scale), scheme, packet_size, 4.0
    )


def _lan(scheme: Scheme, bad_period: float) -> ConfigBuilder:
    """A LAN config of the paper's transfer size at a scale."""
    return lambda scale: lan_point(int(LAN_TRANSFER_BYTES * scale), scheme, bad_period)


def _rows(
    table: Callable[[float, int], TableSpec], *keys: Hashable
) -> Tuple[ConfigBuilder, ...]:
    """The configs of rows ``keys`` of the table spec ``table`` builds."""
    return tuple(lambda scale, key=key: table(scale, 1).points[key] for key in keys)


def _handoff(scale: float, replications: int) -> TableSpec:
    """Handoffs every 6 s during a 60 KB transfer."""
    return handoff_table(int(60 * 1024 * scale), (6.0,))


def _sum(point, metric: str):
    """``metric`` (a dotted attribute path) summed over the point's
    per-seed results, in seed order."""
    return sum(map(attrgetter(metric), point.results))


def _check_fig3(scale, seeds) -> ClaimResult:
    result = run_scenario(trace_example_scenario(Scheme.BASIC))
    ok = result.metrics.timeouts >= 5 and result.metrics.goodput < 0.9
    return ClaimResult(
        ok,
        f"basic TCP (frozen channel): {result.metrics.timeouts} timeouts, "
        f"goodput {result.metrics.goodput:.2f}",
    )


def _check_fig5(scale, seeds) -> ClaimResult:
    result = run_scenario(trace_example_scenario(Scheme.EBSN))
    ok = result.metrics.timeouts == 0 and result.metrics.goodput > 0.99
    return ClaimResult(
        ok,
        f"EBSN (frozen channel): {result.metrics.timeouts} timeouts, "
        f"goodput {result.metrics.goodput:.2f}",
    )


def _check_local_recovery_timeouts(points, seeds) -> ClaimResult:
    (local,) = points
    timeouts = _sum(local, "metrics.timeouts")
    return ClaimResult(
        timeouts > 0, f"local recovery alone: {timeouts} timeouts over {seeds} runs"
    )


def _check_quench_negative(points, seeds) -> ClaimResult:
    quench, ebsn = (_sum(point, "metrics.timeouts") for point in points)
    return ClaimResult(
        ebsn < quench and quench > 0,
        f"timeouts over {seeds} runs: quench {quench}, EBSN {ebsn}",
    )


def _check_packet_size_optimum(points, seeds) -> ClaimResult:
    small, mid, large = (point.throughput_bps_mean for point in points)
    ok = mid > small and mid > large
    return ClaimResult(
        ok,
        f"basic TCP tput (bps) at 128/512/1536 B: "
        f"{small:.0f}/{mid:.0f}/{large:.0f}",
    )


def _check_ebsn_large_packets(points, seeds) -> ClaimResult:
    small, large = (point.throughput_bps_mean for point in points)
    tput_th = wan_theoretical_kbps(4.0) * 1e3
    ok = large > 1.15 * small and large > 0.7 * tput_th
    return ClaimResult(
        ok,
        f"EBSN tput 128 B: {small:.0f} bps, 1536 B: {large:.0f} bps "
        f"(tput_th {tput_th:.0f})",
    )


def _check_ebsn_doubles_basic(points, seeds) -> ClaimResult:
    basic, ebsn = (_sum(point, "metrics.throughput_bps") for point in points)
    ratio = ebsn / basic if basic else 0.0
    return ClaimResult(ratio > 1.4, f"EBSN/basic at 1536 B, bad 4 s: {ratio:.2f}x")


def _check_ebsn_low_retx(points, seeds) -> ClaimResult:
    basic, ebsn = (_sum(point, "metrics.retransmitted_kbytes") for point in points)
    return ClaimResult(
        ebsn < 0.3 * basic,
        f"retransmitted KB over {seeds} runs: basic {basic:.1f}, EBSN {ebsn:.1f}",
    )


def _check_lan(points, seeds) -> ClaimResult:
    basic, ebsn = (point.throughput_bps_mean for point in points)
    tput_th = lan_theoretical_mbps(1.6) * 1e6
    ok = ebsn > 1.1 * basic and ebsn > 0.8 * tput_th
    return ClaimResult(
        ok,
        f"LAN bad 1.6 s: basic {basic / 1e6:.3f}, EBSN {ebsn / 1e6:.3f} Mbps "
        f"(tput_th {tput_th / 1e6:.3f})",
    )


def _check_lan_goodput(points, seeds) -> ClaimResult:
    (ebsn,) = points
    worst = min(run.metrics.goodput for run in ebsn.results)
    return ClaimResult(worst > 0.97, f"EBSN LAN goodput (worst of {seeds}): {worst:.3f}")


def _check_scheduling(points, seeds) -> ClaimResult:
    fifo, rr = (_sum(point, "aggregate_throughput_bps") / seeds for point in points)
    return ClaimResult(
        rr > 1.1 * fifo, f"aggregate bps: FIFO {fifo:.0f}, round-robin {rr:.0f}"
    )


def _check_handoff(points, seeds) -> ClaimResult:
    base, fast = (_sum(point, "timeouts") for point in points)
    return ClaimResult(
        fast < base / 2 and base > 0,
        f"timeouts over {seeds} runs: baseline {base}, fast-rtx {fast}",
    )


def _check_congestion(points, seeds) -> ClaimResult:
    plain, ecn = (_sum(point, "bottleneck_drops") for point in points)
    return ClaimResult(
        ecn < plain and plain > 0,
        f"bottleneck drops over {seeds} runs: no ECN {plain}, ECN {ecn}",
    )


def _check_ebsn_stateless(scale, seeds) -> ClaimResult:
    result = run_scenario(
        wan_scenario(Scheme.EBSN, transfer_bytes=int(20 * 1024 * scale))
    )
    stateful = {
        k: v
        for k, v in vars(result.ebsn).items()
        if not k.startswith("_") and not isinstance(v, (int, float, type(None)))
    }
    return ClaimResult(
        not stateful, f"EBSN generator non-scalar state: {sorted(stateful) or 'none'}"
    )


CLAIMS: List[Claim] = [
    Claim("fig3", "Fig 3", "basic TCP stalls and retransmits every bad period", _check_fig3),
    Claim("fig5", "Fig 5", "EBSN: no timeouts, goodput 100% (frozen channel)", _check_fig5),
    Claim("s421", "§4.2.1", "source timeouts still occur during local recovery", _check_local_recovery_timeouts,
          (_wan(Scheme.LOCAL_RECOVERY),)),
    Claim("s422", "§4.2.2", "source quench cannot prevent timeouts; EBSN can", _check_quench_negative,
          (_wan(Scheme.QUENCH), _wan(Scheme.EBSN))),
    Claim("fig7", "Fig 7", "basic TCP has an interior optimal packet size", _check_packet_size_optimum,
          (_wan(Scheme.BASIC, 128), _wan(Scheme.BASIC, 512), _wan(Scheme.BASIC, 1536))),
    Claim("fig8", "Fig 8", "with EBSN, larger packets win and approach tput_th", _check_ebsn_large_packets,
          (_wan(Scheme.EBSN, 128), _wan(Scheme.EBSN, 1536))),
    Claim("head", "§5.1", "EBSN ~doubles basic TCP at 1536 B / bad 4 s", _check_ebsn_doubles_basic,
          (_wan(Scheme.BASIC, 1536), _wan(Scheme.EBSN, 1536))),
    Claim("fig9", "Fig 9", "EBSN nearly eliminates source retransmissions", _check_ebsn_low_retx,
          (_wan(Scheme.BASIC), _wan(Scheme.EBSN))),
    Claim("fig10", "Fig 10", "LAN: EBSN beats basic and tracks tput_th", _check_lan,
          (_lan(Scheme.BASIC, 1.6), _lan(Scheme.EBSN, 1.6))),
    Claim("fig11", "Fig 11", "LAN: EBSN goodput ≈ 100%", _check_lan_goodput,
          (_lan(Scheme.EBSN, 0.8),)),
    Claim("adv", "§6", "EBSN keeps no per-connection state at the BS", _check_ebsn_stateless),
    Claim("csdp", "§2/[9]", "round-robin scheduling ≫ FIFO for multiple MHs", _check_scheduling,
          _rows(TABLES["csdp_scheduling"], "fifo", "rr")),
    Claim("hand", "§2/[4]", "forced fast retransmit removes handoff timeouts", _check_handoff,
          _rows(_handoff, (HandoffScheme.BASELINE, 6.0), (HandoffScheme.FAST_RTX, 6.0))),
    Claim("cong", "§6/[18]", "ECN marking absorbs wired congestion drops", _check_congestion,
          _rows(TABLES["congestion_ecn_ebsn"], (Scheme.BASIC, False), (Scheme.BASIC, True))),
]


def validate_all(
    scale: float = 0.3, seeds: int = 3
) -> List[Tuple[Claim, ClaimResult]]:
    """Evaluate every claim; returns (claim, result) pairs in order.

    Every simulated claim's configs, deduplicated, run as one campaign
    first.
    """
    return list(zip(CLAIMS, _judge(CLAIMS, scale, seeds)))
