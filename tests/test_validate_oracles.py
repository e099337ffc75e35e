"""Tests for the differential oracles.

The oracles themselves are assertions; these tests check both that
they pass on the healthy code (the actual differential guarantee) and
that they *fail loudly* when fed a genuine disagreement.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import wan_scenario
from repro.validate.oracles import (
    TCP_VARIANTS,
    OracleDisagreement,
    assert_serial_parallel_identical,
    assert_variants_agree_on_clean_channel,
    clean_channel_config,
)


class TestCleanChannelOracle:
    def test_variants_agree_without_loss(self):
        results = assert_variants_agree_on_clean_channel(
            transfer_bytes=12 * 1024
        )
        assert set(results) == set(TCP_VARIANTS)
        for result in results.values():
            assert result.completed
            assert result.metrics.retransmissions == 0
            assert result.metrics.timeouts == 0

    def test_clean_channel_config_is_lossless(self):
        config = clean_channel_config("tahoe")
        assert config.channel.ber_good == 0.0
        assert config.channel.ber_bad == 0.0

    def test_divergence_is_reported(self, monkeypatch):
        from repro.validate import oracles

        real = oracles.run_scenario
        # Sabotage: give newreno a different transfer size, which must
        # change its fingerprint and trip the oracle.
        def skewed(config, **kwargs):
            if config.tcp_variant == "newreno":
                config = replace(
                    config,
                    tcp=replace(config.tcp, transfer_bytes=4 * 1024),
                )
            return real(config, **kwargs)

        monkeypatch.setattr(oracles, "run_scenario", skewed)
        with pytest.raises(OracleDisagreement, match="diverged"):
            assert_variants_agree_on_clean_channel(transfer_bytes=12 * 1024)


class TestSerialParallelOracle:
    def test_engines_agree(self):
        config = wan_scenario(transfer_bytes=8 * 1024, record_trace=False)
        serial, pooled = assert_serial_parallel_identical(
            config, replications=3, workers=2
        )
        assert serial.replications == pooled.replications == 3
        assert serial.throughput_bps_mean == pooled.throughput_bps_mean

    def test_paper_figures_render_identically_on_two_workers(self):
        """Figs 8 and 10, uncached: the pool's workers fork from a parent
        that loaded only the modules the campaign itself needs, and
        must render the serial run's tables byte for byte."""
        from repro.experiments.figures import FIGURES
        from repro.experiments.points import run_specs

        specs = {n: FIGURES[n](0.02, 2) for n in (8, 10)}

        def rendered(workers):
            results, campaign = run_specs(specs, 2, workers=workers)
            assert campaign.report.complete
            return {n: spec.render(results[n]) for n, spec in specs.items()}

        serial = rendered(1)
        assert rendered(2) == serial

    def test_disagreement_is_reported(self, monkeypatch):
        from repro.validate import oracles

        real = oracles.run_replicated
        calls = {"n": 0}

        def skewed(config, replications, base_seed, workers):
            calls["n"] += 1
            result = real(config, replications, base_seed, workers=workers)
            if calls["n"] == 2:  # the "parallel" leg
                result = replace(
                    result, throughput_bps_mean=result.throughput_bps_mean + 1.0
                )
            return result

        monkeypatch.setattr(oracles, "run_replicated", skewed)
        with pytest.raises(OracleDisagreement, match="throughput_bps_mean"):
            assert_serial_parallel_identical(
                wan_scenario(transfer_bytes=8 * 1024, record_trace=False),
                replications=2,
                workers=2,
            )
