"""Tests for the replication runner and sweep helpers."""

from __future__ import annotations

import pytest

from repro.experiments import tables, topology
from repro.experiments.config import wan_scenario
from repro.experiments.points import run_specs
from repro.experiments.runner import run_replicated, sweep, sweep_campaign
from repro.experiments.topology import Scheme


TINY = 5 * 1024


class TestRunReplicated:
    def test_aggregates_over_seeds(self):
        result = run_replicated(
            wan_scenario(transfer_bytes=TINY), replications=3, base_seed=10
        )
        assert result.replications == 3
        assert len(result.results) == 3
        assert result.throughput_bps_mean > 0
        seeds = {r.config.seed for r in result.results}
        assert seeds == {10, 11, 12}

    def test_single_replication_has_zero_std(self):
        result = run_replicated(wan_scenario(transfer_bytes=TINY), replications=1)
        assert result.throughput_bps_std == 0.0
        assert result.throughput_rel_std == 0.0

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            run_replicated(wan_scenario(transfer_bytes=TINY), replications=0)

    def test_traces_disabled_in_replicated_runs(self):
        result = run_replicated(wan_scenario(transfer_bytes=TINY), replications=2)
        assert all(r.trace is None for r in result.results)

    def test_unit_conversions(self):
        result = run_replicated(wan_scenario(transfer_bytes=TINY), replications=1)
        assert result.throughput_kbps == pytest.approx(
            result.throughput_bps_mean / 1000
        )
        assert result.throughput_mbps == pytest.approx(
            result.throughput_bps_mean / 1e6
        )

    def test_incomplete_run_raises(self, monkeypatch):
        monkeypatch.setattr(topology, "MAX_SIM_TIME", 0.01)  # cannot finish
        with pytest.raises(RuntimeError):
            run_replicated(wan_scenario(transfer_bytes=TINY), replications=1)


class TestSweep:
    def test_one_point_per_value(self):
        points = sweep(
            [256, 576],
            lambda size: wan_scenario(packet_size=size, transfer_bytes=TINY),
            replications=1,
        )
        assert set(points) == {256, 576}
        assert all(p.replications == 1 for p in points.values())

    def test_paired_seeds_share_fade_timeline(self):
        """Same seed => same channel sojourns regardless of packet
        size (the variance-reduction design)."""
        from repro.experiments.topology import Scenario

        def sojourns(size):
            scenario = Scenario(
                wan_scenario(packet_size=size, transfer_bytes=TINY, seed=5)
            )
            channel = scenario.channel
            return [
                (round(a, 9), s.value) for a, _, s in channel.intervals(0, 50)
            ]

        assert sojourns(128) == sojourns(1536)


class TestConfidenceIntervals:
    def test_t_table(self):
        from repro.experiments.runner import t95

        assert t95(1) == pytest.approx(12.706)
        assert t95(9) == pytest.approx(2.262)
        assert t95(1000) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t95(0)

    def test_ci_zero_for_single_run(self):
        result = run_replicated(wan_scenario(transfer_bytes=TINY), replications=1)
        assert result.throughput_ci95_bps == 0.0

    def test_ci_positive_for_multiple_runs(self):
        result = run_replicated(wan_scenario(transfer_bytes=TINY), replications=3)
        assert result.throughput_ci95_bps > 0.0


class TestSweepOrderAndDuplicates:
    def test_preserves_input_order(self):
        points = sweep(
            [1536, 256, 576],
            lambda size: wan_scenario(packet_size=size, transfer_bytes=TINY),
            replications=1,
        )
        assert list(points) == [1536, 256, 576]

    def test_duplicate_value_raises(self):
        with pytest.raises(ValueError, match="duplicate sweep value"):
            sweep(
                [256, 576, 256],
                lambda size: wan_scenario(packet_size=size, transfer_bytes=TINY),
                replications=1,
            )

    def test_matches_individual_run_replicated(self):
        """The flattened batch must aggregate exactly like point-by-point."""
        make = lambda size: wan_scenario(packet_size=size, transfer_bytes=TINY)
        points = sweep([256, 576], make, replications=2)
        for size in (256, 576):
            direct = run_replicated(make(size), replications=2)
            assert (
                points[size].throughput_bps_mean == direct.throughput_bps_mean
            )
            assert points[size].throughput_bps_std == direct.throughput_bps_std


class TestSweepCampaign:
    @pytest.fixture()
    def broken(self, monkeypatch, tmp_path):
        """Make ``run_scenario`` raise for the configs ``predicate`` picks."""
        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
        original = topology.run_scenario

        def install(predicate):
            def maybe_broken(cfg, **kwargs):
                if predicate(cfg):
                    raise ValueError("broken unit")
                return original(cfg, **kwargs)

            monkeypatch.setattr(topology, "run_scenario", maybe_broken)

        return install

    def test_point_failures_are_their_own_slice_with_campaign_indices(
        self, broken
    ):
        broken(lambda cfg: cfg.seed == 2)
        campaign = sweep_campaign(
            [256, 576],
            lambda size: wan_scenario(packet_size=size, transfer_bytes=TINY),
            replications=3,
            fail_fast=False,
        )
        assert [f.index for f in campaign.report.quarantined] == [1, 4]
        assert [f.index for f in campaign.points[256].failures] == [1]
        assert [f.index for f in campaign.points[576].failures] == [4]
        for point in campaign.points.values():
            assert point.replications == 2 and point.attempted == 3
            assert point.report is campaign.report

    def test_point_with_every_seed_quarantined_raises(self, broken):
        from repro.experiments.faults import UnitQuarantined

        broken(lambda cfg: cfg.tcp.packet_size == 576)
        with pytest.raises(UnitQuarantined) as info:
            sweep_campaign(
                [256, 576],
                lambda size: wan_scenario(packet_size=size, transfer_bytes=TINY),
                replications=2,
                fail_fast=False,
            )
        assert info.value.failure.index == 2  # the point's first seed

    @pytest.mark.parametrize(
        "names, points",
        [
            (["fig7_wan_basic"], 36),
            (["fig9_wan_retx"], 72),
            (["fig10_lan_tput", "fig11_lan_retx"], 14),
            (list(tables.TABLES)[:5], 86),
            # BASIC and EBSN at 576 B, 4 s, 100 KB: in all three tables.
            (["quench_negative", "snoop_vs_ebsn", "ablation_tcp_variant"], 9),
            # The two default-timer LAN runs: in both ablations.
            (["ablation_granularity", "ablation_robust_timer"], 8),
            # Energy reads snoop's BASIC, EBSN and SNOOP points.
            (["snoop_vs_ebsn", "energy_per_scheme"], 5),
            (list(tables.TABLES), 150),
        ],
        ids=[
            "figure_7",
            "figure_9",
            "figure_10",
            "figures_7_to_11",
            "shared_wan_points",
            "shared_lan_points",
            "shared_energy_points",
            "every_table",
        ],
    )
    def test_figure_is_one_campaign(self, monkeypatch, names, points):
        """The requested tables' distinct configs, each simulated once."""
        from repro.experiments.parallel import ParallelRunner

        calls = []
        original = ParallelRunner.run_campaign

        def counting(runner, configs):
            calls.append(len(configs))
            return original(runner, configs)

        monkeypatch.setattr(ParallelRunner, "run_campaign", counting)
        specs = {name: tables.TABLES[name](0.02, 2) for name in names}
        results, _ = run_specs(specs, replications=2)
        assert calls == [points * 2]
        assert all(len(results[n]) == len(specs[n].points) for n in names)
