"""The simulated points the paper's tables and claims read.

A point is a tuple: its kind (a key of :data:`_CONFIGS`) followed by
that kind's arguments.  A WAN point is
``("wan", scheme, packet_size, bad_period)``, a LAN point
``("lan", scheme, bad_period)``; the study kinds are
``("csdp", scheduler)``, ``("hand", handoff_scheme)`` and
``("cong", ecn)``.  At a transfer scale every point is one config, so
a point that a figure and a claim both read is one cache key.

The study kinds import their modules when first built, so the
figures, which read only WAN and LAN points, never load them.

A :class:`TableSpec` is one printed table: the points it reads, each a
key and its config, and its renderer.  :func:`run_specs` runs the
points of several tables as one campaign, each distinct config once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, Mapping, Tuple

from repro.experiments.config import (
    LAN_TRANSFER_BYTES,
    WAN_TRANSFER_BYTES,
    lan_scenario,
    wan_scenario,
)
from repro.experiments.cache import config_digest
from repro.experiments.runner import SweepCampaign, sweep_campaign
from repro.experiments.topology import ScenarioConfig, Scheme
from repro.tcp import TcpConfig

Point = Tuple


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


def _csdp(scale: float, scheduler: str):
    from repro.csdp import CsdpStudyConfig

    return CsdpStudyConfig(scheduler=scheduler, transfer_bytes=int(50 * 1024 * scale))


def _handoff(scale: float, scheme):
    from repro.handoff import HandoffConfig

    return HandoffConfig(
        scheme=scheme, handoff_interval=6.0, transfer_bytes=int(60 * 1024 * scale)
    )


def _congestion(scale: float, ecn: bool):
    from repro.experiments.congestion import CongestedScenarioConfig

    return CongestedScenarioConfig(
        scheme=Scheme.BASIC,
        ecn=ecn,
        cross_load=0.9,
        tcp=TcpConfig(transfer_bytes=int(60 * 1024 * scale)),
    )


#: Per kind: the config of a point at a transfer scale, from
#: ``(scale, *point[1:])``.
_CONFIGS: Dict[str, Callable] = {
    "wan": lambda scale, *args: wan_point(int(WAN_TRANSFER_BYTES * scale), *args),
    "lan": lambda scale, scheme, bad_period: lan_scenario(
        scheme=scheme,
        bad_period_mean=bad_period,
        transfer_bytes=int(LAN_TRANSFER_BYTES * scale),
    ),
    "csdp": _csdp,
    "hand": _handoff,
    "cong": _congestion,
}


def point_config(point: Point, scale: float) -> Any:
    """The config of ``point`` at a transfer ``scale``."""
    return _CONFIGS[point[0]](scale, *point[1:])


def run_points(
    points: Iterable[Point], scale: float, replications: int, **campaign
) -> SweepCampaign:
    """Every distinct point over ``replications`` seeds, as one
    campaign; ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`."""
    return sweep_campaign(
        dict.fromkeys(points),
        lambda point: point_config(point, scale),
        replications,
        **campaign,
    )


#: A table's results: each of its keys → that point's aggregate (a
#: ``ReplicatedResult`` or ``StudyPoint``).
Results = Dict[Hashable, Any]


@dataclass(frozen=True)
class TableSpec:
    """One printed table: the points it reads (key → config), and
    ``render(results)``, which prints their results as its text."""

    points: Dict[Hashable, Any]
    render: Callable[[Results], str]


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
