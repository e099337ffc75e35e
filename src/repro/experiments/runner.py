"""Replication and sweeping.

The paper reports results with "standard deviation ... less than 4%";
each point is therefore an average over several seeds.
:func:`sweep_campaign` runs every ``(value, seed)`` unit of a
parameter sweep as one campaign, for any config type registered in
:data:`~repro.experiments.parallel.UNITS`, and aggregates per value;
:func:`run_replicated` is that over a single value and :func:`sweep`
drops the report.

All three forward ``**campaign`` unchanged to
:class:`~repro.experiments.parallel.ParallelRunner`, which declares
the knobs (workers, cache, validation, timeout, retries, fail-fast,
journal).  The aggregates are bit-identical whichever executor runs
the units — same seeds, same per-seed metrics, same reduction order.
With ``fail_fast=False`` they degrade to *partial* aggregates: the
surviving seeds are averaged and every missing one is enumerated in
the result's ``failures``/``report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple
from typing import TypeVar, Union

from repro.experiments.faults import FAULT_UNFINISHED, CompletenessReport, UnitFailure
from repro.experiments.parallel import ParallelRunner, RunSummary, scheme_name
from repro.experiments.topology import ScenarioConfig

T = TypeVar("T")


#: Two-sided 95% Student-t critical values by degrees of freedom
#: (1..30); beyond 30 the normal value 1.96 is close enough.
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t95(dof: int) -> float:
    """95% two-sided Student-t critical value."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    return _T95[dof - 1] if dof <= len(_T95) else 1.96


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregate of one configuration over several seeds.

    ``replications`` counts the seeds that actually contributed; when
    a campaign degraded gracefully, ``failures`` lists every
    quarantined seed and ``partial`` is True.  Full-fidelity results
    have an empty ``failures`` tuple, as before.  ``report`` is the
    completeness report of the campaign the point ran in, shared by
    every point of one sweep or figure.
    """

    config: ScenarioConfig
    replications: int
    throughput_bps_mean: float
    throughput_bps_std: float
    goodput_mean: float
    retransmitted_kbytes_mean: float
    timeouts_mean: float
    duration_mean: float
    tput_th_bps: float
    results: tuple
    failures: Tuple[UnitFailure, ...] = ()
    report: Optional[CompletenessReport] = None

    @property
    def partial(self) -> bool:
        """True when quarantined seeds are missing from the averages."""
        return bool(self.failures)

    @property
    def attempted(self) -> int:
        """Seeds requested: contributors plus quarantined."""
        return self.replications + len(self.failures)

    @property
    def throughput_kbps(self) -> float:
        return self.throughput_bps_mean / 1000.0

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps_mean / 1e6

    @property
    def throughput_rel_std(self) -> float:
        """Relative standard deviation (the paper keeps this < 4%)."""
        if self.throughput_bps_mean == 0:
            return 0.0
        return self.throughput_bps_std / self.throughput_bps_mean

    @property
    def throughput_ci95_bps(self) -> float:
        """Half-width of the 95% confidence interval on the mean (bps)."""
        if self.replications < 2:
            return 0.0
        return (
            t95(self.replications - 1)
            * self.throughput_bps_std
            / math.sqrt(self.replications)
        )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class StudyPoint:
    """A study's per-seed results in seed order, and the quarantined
    seeds missing from them."""

    results: tuple
    failures: Tuple[UnitFailure, ...] = ()

    def mean(self, metric: Callable[[Any], float]) -> float:
        """``metric`` averaged over the results: a running sum of x/n."""
        n = len(self.results)
        total = 0.0
        for result in self.results:
            total += metric(result) / n
        return total


def _seeded_configs(config: Any, replications: int, base_seed: int) -> List[Any]:
    """The per-seed work units behind one point (untraced scenarios)."""
    untraced = {"record_trace": False} if isinstance(config, ScenarioConfig) else {}
    return [
        replace(config, seed=base_seed + i, **untraced) for i in range(replications)
    ]


def _aggregate(
    config: ScenarioConfig,
    summaries: Sequence[RunSummary],
    failures: Tuple[UnitFailure, ...],
    report: CompletenessReport,
) -> ReplicatedResult:
    """Reduce per-seed summaries to one :class:`ReplicatedResult`."""
    throughputs = [r.metrics.throughput_bps for r in summaries]
    return ReplicatedResult(
        config=config,
        replications=len(summaries),
        throughput_bps_mean=_mean(throughputs),
        throughput_bps_std=_std(throughputs),
        goodput_mean=_mean([r.metrics.goodput for r in summaries]),
        retransmitted_kbytes_mean=_mean(
            [r.metrics.retransmitted_kbytes for r in summaries]
        ),
        timeouts_mean=_mean([float(r.metrics.timeouts) for r in summaries]),
        duration_mean=_mean([r.metrics.duration for r in summaries]),
        tput_th_bps=summaries[0].tput_th_bps,
        results=tuple(summaries),
        failures=failures,
        report=report,
    )


def run_replicated(
    config: ScenarioConfig,
    replications: int = 5,
    base_seed: int = 1,
    **campaign,
) -> ReplicatedResult:
    """Run ``config`` over ``replications`` seeds and aggregate.

    Seeds are ``base_seed + i``; each run gets fully independent
    channel/backoff randomness via the seed-derived substreams.  This
    is :func:`sweep_campaign` over a single value, so ``**campaign``
    (workers, cache, validation, fault handling) is forwarded
    unchanged to :class:`~repro.experiments.parallel.ParallelRunner`
    and aggregates are identical whichever executor runs the seeds.
    """
    return sweep_campaign(
        [0], lambda _: config, replications, base_seed, **campaign
    ).points[0]


@dataclass(frozen=True)
class SweepCampaign:
    """A sweep's points plus its campaign-wide completeness report."""

    points: Dict[T, Union[ReplicatedResult, StudyPoint]]
    report: CompletenessReport


def sweep_campaign(
    values: Iterable[T],
    make_config: Callable[[T], Any],
    replications: int = 5,
    base_seed: int = 1,
    **campaign,
) -> SweepCampaign:
    """Fault-tolerant sweep: every point, plus a completeness report.

    The whole sweep — every ``(value, seed)`` pair — is flattened into
    one :class:`~repro.experiments.parallel.ParallelRunner` campaign,
    built from ``**campaign`` unchanged.  ``workers=N`` therefore
    parallelizes across points as well as seeds, retries/timeouts
    apply per unit, and a ``journal`` checkpoints the entire campaign
    for resume.  Unit indices in the report (and in each point's
    ``failures``) are campaign-wide, and every point carries the
    campaign's ``report``.  A ``ScenarioConfig`` point aggregates to a
    :class:`ReplicatedResult`, any other type's to a :class:`StudyPoint`.

    With ``fail_fast=False`` quarantined seeds degrade their point to
    a partial average; a point whose every seed was quarantined has
    nothing to average and raises its first failure's taxonomy
    exception.  A unit that ran out of simulated time (its summary's
    ``completed`` is false) raises the taxonomy exception of an
    ``unfinished`` failure, whatever the config type and whatever
    ``fail_fast`` says: an unfinished run is never averaged.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    value_list = list(values)
    seen: set = set()
    for value in value_list:
        if value in seen:
            raise ValueError(
                f"duplicate sweep value {value!r}: each swept value must be "
                f"unique (duplicates would silently overwrite each other)"
            )
        seen.add(value)
    configs = [make_config(value) for value in value_list]
    units: List[Any] = []
    for config in configs:
        units.extend(_seeded_configs(config, replications, base_seed))
    outcome = ParallelRunner(**campaign).run_campaign(units)
    report = outcome.report
    points: Dict[T, ReplicatedResult] = {}
    for index, (unit, summary) in enumerate(zip(units, outcome.summaries)):
        if summary is not None and not summary.completed:
            raise UnitFailure(
                index=index, key=None, seed=unit.seed, scheme=scheme_name(unit),
                kind=FAULT_UNFINISHED, attempts=1,
                message=f"{type(unit).__name__} run did not complete within "
                "its simulated-time limit",
            ).to_exception()
    for i, (value, config) in enumerate(zip(value_list, configs)):
        lo, hi = i * replications, (i + 1) * replications
        chunk = [s for s in outcome.summaries[lo:hi] if s is not None]
        failures = tuple(f for f in report.quarantined if lo <= f.index < hi)
        if not chunk:
            raise failures[0].to_exception()
        if isinstance(config, ScenarioConfig):
            points[value] = _aggregate(config, chunk, failures, report)
        else:
            points[value] = StudyPoint(tuple(chunk), failures)
    return SweepCampaign(points=points, report=report)


def sweep(
    values: Iterable[T],
    make_config: Callable[[T], ScenarioConfig],
    replications: int = 5,
    **campaign,
) -> Dict[T, ReplicatedResult]:
    """Run a replicated experiment for every value of a swept parameter.

    Points appear in the returned dict in input order, and duplicate
    sweep values are an error (they would silently alias one dict
    entry).  This is :func:`sweep_campaign` without the report — use
    that variant when you need the completeness accounting.

    >>> from repro.experiments.config import wan_scenario
    >>> points = sweep(
    ...     [576],
    ...     lambda size: wan_scenario(packet_size=size, transfer_bytes=10_240),
    ...     replications=1,
    ... )
    >>> 576 in points
    True
    """
    return sweep_campaign(values, make_config, replications, **campaign).points
