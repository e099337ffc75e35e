"""The simulated points the paper's figures and claims read.

A point is a tuple: its kind (a key of :data:`_CONFIGS`) followed by
that kind's arguments.  A WAN point is
``("wan", scheme, packet_size, bad_period)``, a LAN point
``("lan", scheme, bad_period)``; the study kinds are
``("csdp", scheduler)``, ``("hand", handoff_scheme)`` and
``("cong", ecn)``.  At a transfer scale every point is one config, so
a point that a figure and a claim both read is one cache key.

The study kinds import their modules when first built, so the
figures, which read only WAN and LAN points, never load them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

from repro.experiments.config import (
    LAN_TRANSFER_BYTES,
    WAN_TRANSFER_BYTES,
    lan_scenario,
    wan_scenario,
)
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


def run_points(
    points: Iterable[Point], scale: float, replications: int, **campaign
) -> SweepCampaign:
    """Every distinct point over ``replications`` seeds, as one
    campaign; ``**campaign`` is forwarded to
    :class:`~repro.experiments.parallel.ParallelRunner`."""
    return sweep_campaign(
        dict.fromkeys(points),
        lambda point: _CONFIGS[point[0]](scale, *point[1:]),
        replications,
        **campaign,
    )
