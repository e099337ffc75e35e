"""Tests for the mobile-host energy model."""

from __future__ import annotations

import pytest

from repro.experiments.config import WAN_TRANSFER_BYTES, wan_scenario
from repro.experiments.topology import Scheme, run_scenario
from repro.metrics.energy import EnergyModel, EnergyReport, mobile_host_energy


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_power_w=-1)

    def test_report_arithmetic(self):
        report = EnergyReport(
            tx_joules=2.0, rx_joules=3.0, idle_joules=5.0, duration=10.0,
            useful_bytes=2048,
        )
        assert report.total_joules == 10.0
        assert report.joules_per_useful_kb == pytest.approx(5.0)

    def test_zero_bytes_is_infinite_cost(self):
        report = EnergyReport(1.0, 1.0, 1.0, 1.0, useful_bytes=0)
        assert report.joules_per_useful_kb == float("inf")


class TestScenarioEnergy:
    def run(self, scheme, seed=1):
        return run_scenario(
            wan_scenario(
                scheme=scheme, bad_period_mean=4.0, transfer_bytes=30 * 1024,
                seed=seed, record_trace=False,
            )
        )

    def test_components_positive_and_bounded(self):
        result = self.run(Scheme.BASIC)
        report = mobile_host_energy(result)
        assert report.tx_joules > 0
        assert report.rx_joules > 0
        assert report.idle_joules >= 0
        # Total power never exceeds duration at the max draw.
        assert report.total_joules <= result.metrics.duration * 1.7 + 1e-9

    def test_ebsn_cheaper_per_byte_than_basic(self):
        """Fewer redundant retransmissions and a shorter connection
        mean less energy per delivered KB."""
        def mean_cost(scheme):
            return sum(
                mobile_host_energy(self.run(scheme, seed=s)).joules_per_useful_kb
                for s in range(1, 5)
            ) / 4

        assert mean_cost(Scheme.EBSN) < mean_cost(Scheme.BASIC)

    def test_idle_dominates_on_slow_links(self):
        """At 19.2 kbps the radio is mostly waiting — the era's
        motivation for radio power-down protocols."""
        report = mobile_host_energy(self.run(Scheme.EBSN))
        assert report.idle_joules > report.tx_joules


class TestEnergyTable:
    def test_rows_match_full_results(self):
        """The campaign table, built from run summaries, gives the means
        (bit for bit) and rows that ``mobile_host_energy`` over full
        results gives: running sums of x/n over seeds 1..n."""
        from repro.experiments.points import run_specs
        from repro.experiments.tables import TABLES, energy_means

        seeds, transfer = 2, 5 * 1024
        spec = TABLES["energy_per_scheme"](transfer / WAN_TRANSFER_BYTES, seeds)
        results, _ = run_specs({None: spec}, seeds)
        assert list(spec.points) == [
            Scheme.BASIC, Scheme.LOCAL_RECOVERY, Scheme.EBSN, Scheme.SNOOP
        ]

        rows = []
        for scheme in spec.points:
            joules_per_kb = total = duration = 0.0
            for seed in range(1, seeds + 1):
                result = run_scenario(
                    wan_scenario(
                        scheme=scheme, bad_period_mean=4.0,
                        transfer_bytes=transfer, seed=seed, record_trace=False,
                    )
                )
                report = mobile_host_energy(result)
                joules_per_kb += report.joules_per_useful_kb / seeds
                total += report.total_joules / seeds
                duration += report.duration / seeds
            assert energy_means(results[None][scheme]) == dict(
                joules_per_kb=joules_per_kb, total_j=total, duration=duration
            )
            rows.append(
                f"{scheme.value:16s} {joules_per_kb:11.3f}   {total:7.1f}"
                f"   {duration:11.1f}"
            )
        assert spec.render(results[None]).splitlines()[3:] == rows
