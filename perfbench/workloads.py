"""The benchmark's workloads: which units each one runs, and how.

A workload is a fixed list of simulation units run closed-loop (the
next unit starts when the previous one returns) through the
package's public API.  ``run_pass`` executes every unit once and
returns one digest per checked output, keyed by a stable name, so the
driver can compare them with the values recorded in ``expected.json``.
BENCHMARK.json gives the reason each workload exists.

Simulation seeds are fixed, as the figures fix theirs (replication i
runs seed i): with seeds drawn from ``--seed``, a pass's time moved
10-30% between seeds (its simulated work changed, on top of the host's
own noise).  The ``--seed`` argument therefore only shuffles the order the units
run in (for ``fig8-pool``, the order of the grid handed to
``figure_8``), and the digests do not depend on it.

The package is imported inside ``import_modules``, so the set-up probe
(``setup_probe.py``) pays exactly the imports its workload needs.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List

#: Pool size of the campaign workload (the machine has 2 cores).
POOL_WORKERS = 2


def digest(*values) -> str:
    """Short, exact digest of a result: floats go through ``repr``."""
    text = "|".join(repr(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _metrics_digest(metrics, completed: bool) -> str:
    return digest(
        metrics.throughput_bps,
        metrics.retransmitted_kbytes,
        metrics.timeouts,
        metrics.segments_sent,
        completed,
    )


@dataclass
class PassResult:
    """Outputs of one pass over a workload's units."""

    digests: Dict[str, str] = field(default_factory=dict)
    units: int = 0
    #: Units that raised or were quarantined.
    errors: int = 0


class Workload:
    """One named workload."""

    name = ""
    #: Whether units normally run in a worker pool (else in-process).
    pooled = False
    #: Whether units run under observers that ``observed=False`` drops.
    observers = False

    def import_modules(self) -> None:
        """Import every module a pass needs (part of set-up time)."""
        raise NotImplementedError

    def run_pass(self, seed: int, inprocess: bool = False,
                 observed: bool = True, tmp_root: str = ".") -> PassResult:
        """Run every unit once, in the order ``seed`` gives.

        ``inprocess`` keeps pooled units in this process, where the
        traced run can reach their component objects.
        ``observed=False`` drops the observers of ``wan-observed``
        (the plain baseline of ``observe.overhead_frac``).
        """
        raise NotImplementedError

    def units_of(self, key: str) -> List[str]:
        """The units a digest key covers (for counting failures)."""
        return [key]

    def failed_units(self, result: PassResult, expected: Dict[str, str]) -> int:
        """Units that raised, were quarantined or differ from ``expected``."""
        bad = set()
        for key, want in expected.items():
            if result.digests.get(key) != want:
                bad.update(self.units_of(key))
        return min(result.units, max(result.errors, len(bad)))

    def probe(self, ready: Callable[[], None], tmp_root: str) -> None:
        """Do the workload's set-up; call ``ready`` as the first unit starts."""
        self.import_modules()
        ready()


def _run_units(units: list, seed: int) -> PassResult:
    """Run ``(key, run)`` units in the order ``seed`` shuffles them into."""
    random.Random(seed).shuffle(units)
    out = PassResult()
    for key, run in units:
        out.units += 1
        try:
            out.digests[key] = run()
        except Exception:
            traceback.print_exc()
            out.errors += 1
    return out


class Fig8Pool(Workload):
    """Figure 8 exactly as ``repro figure 8 --workers 2`` runs it, cold.

    Many 10-100 ms units, so the campaign layer's per-point pools,
    barriers and write-back dominate, and 128 B fragmentation loads
    ``net``.
    """

    name = "fig8-pool"
    pooled = True
    replications = 3

    def import_modules(self) -> None:
        global config, figures, topology, ResultCache
        from repro.experiments import config, figures, topology
        from repro.experiments.cache import ResultCache

    def run_pass(self, seed, inprocess=False, observed=True, tmp_root="."):
        self.import_modules()
        rng = random.Random(seed)
        bads = list(config.WAN_BAD_PERIODS)
        sizes = list(config.WAN_PACKET_SIZES)
        rng.shuffle(bads)
        rng.shuffle(sizes)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp_root)
        out = PassResult()
        try:
            series = figures.figure_8(
                replications=self.replications,
                packet_sizes=sizes,
                bad_periods=bads,
                workers=1 if inprocess else POOL_WORKERS,
                cache=ResultCache(cache_dir),
                fail_fast=False,
            )
        except Exception:
            traceback.print_exc()
            out.units = out.errors = len(bads) * len(sizes) * self.replications
            return out
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        for bad, curve in series.items():
            for size, point in curve.points.items():
                prefix = f"bad={bad:g}/pkt={size}"
                out.units += point.attempted
                out.errors += len(point.failures)
                for summary in point.results:
                    out.digests[f"{prefix}/seed={summary.config.seed}"] = (
                        _metrics_digest(summary.metrics, summary.completed)
                    )
                out.digests[f"{prefix}/mean"] = digest(
                    point.throughput_bps_mean,
                    point.retransmitted_kbytes_mean,
                    point.timeouts_mean,
                    point.replications,
                )
        return out

    def units_of(self, key):
        prefix, _, leaf = key.rpartition("/")
        if leaf == "mean":
            return [f"{prefix}/seed={s}" for s in range(1, self.replications + 1)]
        return [key]

    def probe(self, ready, tmp_root):
        """Set-up ends when the first pool worker starts its first unit."""
        self.import_modules()
        real = topology.run_scenario

        def first_unit(cfg, *args, **kwargs):
            ready()
            return real(cfg, *args, **kwargs)

        # The worker entry point looks run_scenario up on the module
        # per call, and forked workers inherit this replacement.
        topology.run_scenario = first_unit
        cache_dir = tempfile.mkdtemp(prefix="probe-", dir=tmp_root)
        try:
            # Two 1 KB units: the fewest that make the runner fork its pool.
            figures.figure_8(
                replications=POOL_WORKERS,
                packet_sizes=config.WAN_PACKET_SIZES[:1],
                bad_periods=config.WAN_BAD_PERIODS[:1],
                transfer_bytes=1024,
                workers=POOL_WORKERS,
                cache=ResultCache(cache_dir),
            )
        finally:
            topology.run_scenario = real
            shutil.rmtree(cache_dir, ignore_errors=True)


class LanSerial(Workload):
    """Figure 10's 14 points as ``Scenario(config).run()``: no pool, no cache.

    Long units where engine, tcp, linklayer and net do nearly all the
    work; a campaign-layer change must not move this workload.
    """

    name = "lan-serial"

    def import_modules(self) -> None:
        global config, topology
        from repro.experiments import config, topology

    def run_pass(self, seed, inprocess=False, observed=True, tmp_root="."):
        self.import_modules()
        return _run_units([
            (f"{scheme.value}/bad={bad:g}",
             partial(self._unit, config.lan_scenario(scheme=scheme, bad_period_mean=bad)))
            for scheme in (topology.Scheme.BASIC, topology.Scheme.EBSN)
            for bad in config.LAN_BAD_PERIODS
        ], seed)

    @staticmethod
    def _unit(cfg):
        result = topology.Scenario(cfg).run()
        return _metrics_digest(result.metrics, result.completed)


class WanObserved(Workload):
    """WAN runs of every scheme, each under the event log and the checkers.

    Every send, corruption and schedule passes through an observer;
    the only workload that runs the snoop, split and quench code.
    """

    name = "wan-observed"
    observers = True
    replications = 4

    def import_modules(self) -> None:
        global config, topology, vengine
        from repro.experiments import config, topology
        from repro.validate import engine as vengine
        # run_validated imports these on first use; load them here so
        # the first unit does not pay for them.
        import repro.metrics.eventlog  # noqa: F401
        import repro.validate.bundle  # noqa: F401
        import repro.validate.checkers  # noqa: F401

    def run_pass(self, seed, inprocess=False, observed=True, tmp_root="."):
        self.import_modules()
        return _run_units([
            (f"{scheme.value}/seed={rep}",
             partial(self._unit, observed, config.wan_scenario(
                 scheme=scheme, packet_size=576, bad_period_mean=2.0,
                 seed=rep, record_trace=False)))
            for scheme in topology.Scheme
            for rep in range(1, self.replications + 1)
        ], seed)

    @staticmethod
    def _unit(observed, cfg):
        scenario = topology.Scenario(cfg)
        if observed:
            # Looked up per call, so the traced run's wrapper applies.
            result = vengine.run_validated(scenario, bundle_dir=False)
        else:
            result = scenario.run()
        return _metrics_digest(result.metrics, result.completed)


class StudiesMix(Workload):
    """The handoff, CSDP and congestion studies, serially.

    Their hand-wired topologies are measured nowhere else.
    """

    name = "studies-mix"
    #: Cross traffic on the congestion study's bottleneck, as a share of
    #: its capacity.  At the study's default of 0.5 the queue never
    #: reaches the ECN threshold, so nothing is dropped or marked.
    cross_load = 0.9

    def import_modules(self) -> None:
        global handoff, csdp, congestion, Scheme
        from repro.csdp import study as csdp
        from repro.experiments import congestion
        from repro.experiments.topology import Scheme
        from repro.handoff import topology as handoff

    def run_pass(self, seed, inprocess=False, observed=True, tmp_root="."):
        self.import_modules()
        return _run_units([
            (f"handoff/{s.value}", partial(self._handoff, s))
            for s in handoff.HandoffScheme
        ] + [
            (f"csdp/{name}", partial(self._csdp, name))
            for name in ("fifo", "rr", "csdp")
        ] + [
            (f"congestion/{s.value}/ecn={int(ecn)}", partial(self._congestion, s, ecn))
            for s in (Scheme.BASIC, Scheme.EBSN)
            for ecn in (False, True)
        ], seed)

    @staticmethod
    def _handoff(scheme):
        r = handoff.run_handoff_scenario(handoff.HandoffConfig(scheme=scheme))
        return digest(
            r.metrics.throughput_bps, r.metrics.retransmitted_kbytes, r.timeouts,
            r.handoffs, r.stall_time_total, r.completed,
        )

    @staticmethod
    def _csdp(name):
        r = csdp.run_csdp_study(csdp.CsdpStudyConfig(scheduler=name))
        return digest(
            r.aggregate_throughput_bps, tuple(r.per_connection_throughput_bps),
            r.total_timeouts, r.all_completed,
        )

    def _congestion(self, scheme, ecn):
        r = congestion.run_congested_scenario(congestion.CongestedScenarioConfig(
            scheme=scheme, ecn=ecn, cross_load=self.cross_load,
        ))
        return digest(
            r.metrics.throughput_bps, r.metrics.retransmitted_kbytes, r.timeouts,
            r.bottleneck_drops, r.ecn_marks, r.ecn_responses, r.ebsn_received,
            r.completed,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig8Pool(), LanSerial(), WanObserved(), StudiesMix())
}
