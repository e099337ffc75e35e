"""The configs and specs every campaign-run table, claim and sweep reads.

:func:`wan_point` and :func:`lan_point` build a Fig. 2 config of the
WAN or LAN study for a transfer size.  A :class:`TableSpec` is one
printed table: the points it reads, each a key and its config, and its
renderer, which :func:`table_renderer` builds for the common layout.
:func:`run_specs` runs the points of several specs as one campaign,
each distinct config once, so a config that a figure, a claim and a
study table all read is one cache key.

This module imports no study module, so the figures and ``repro
sweep`` load none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Mapping, Tuple

from repro.experiments.cache import config_digest
from repro.experiments.config import lan_scenario, wan_scenario
from repro.experiments.runner import SweepCampaign, sweep_campaign
from repro.experiments.topology import ScenarioConfig, Scheme


def wan_point(
    transfer_bytes: int, scheme: Scheme, packet_size: int, bad_period: float
) -> ScenarioConfig:
    """A WAN point's config for a ``transfer_bytes`` transfer, without
    the per-packet trace a replicated run never reads."""
    return wan_scenario(
        scheme=scheme,
        packet_size=packet_size,
        bad_period_mean=bad_period,
        transfer_bytes=transfer_bytes,
        record_trace=False,
    )


def lan_point(transfer_bytes: int, scheme: Scheme, bad_period: float) -> ScenarioConfig:
    """A LAN point's config for a ``transfer_bytes`` transfer (the
    study's only packet size is 1536 B)."""
    return lan_scenario(
        scheme=scheme, bad_period_mean=bad_period, transfer_bytes=transfer_bytes
    )


#: A table's results: each of its keys → that point's aggregate (a
#: ``ReplicatedResult`` or ``StudyPoint``).
Results = Dict[Hashable, Any]


@dataclass(frozen=True)
class TableSpec:
    """One printed table: the points it reads (key → config), and
    ``render(results)``, which prints their results as its text (a
    claim's spec judges them instead, :mod:`repro.experiments.claims`)."""

    points: Dict[Hashable, Any]
    render: Callable[[Results], Any]


def table_renderer(
    title: str, header: str, row: Callable[[Hashable, Any], str]
) -> Callable[[Results], str]:
    """A renderer: ``title``, a blank line, the column ``header``, then
    ``row(key, result)`` per point."""
    return lambda results: "\n".join(
        [title, "", header, *(row(*item) for item in results.items())]
    )


def run_specs(
    specs: Mapping[Hashable, TableSpec],
    replications: int,
    base_seed: int = 1,
    **campaign,
) -> Tuple[Dict[Hashable, Results], SweepCampaign]:
    """The results of every spec by its name, and the campaign behind
    them.

    Every distinct config of every spec runs over ``replications``
    seeds (``base_seed`` on) as one campaign, so a config two tables
    share is simulated once; ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`.
    """
    digests = {
        name: {key: config_digest(config) for key, config in spec.points.items()}
        for name, spec in specs.items()
    }
    configs = {
        digests[name][key]: config
        for name, spec in specs.items()
        for key, config in spec.points.items()
    }
    campaign = sweep_campaign(
        configs, configs.__getitem__, replications, base_seed, **campaign
    )
    results = {
        name: {key: campaign.points[digest] for key, digest in keyed.items()}
        for name, keyed in digests.items()
    }
    return results, campaign
