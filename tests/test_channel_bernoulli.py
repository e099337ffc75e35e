"""Tests for the uniform (Bernoulli) loss channel."""

from __future__ import annotations

import random

import pytest

from repro.channel.bernoulli import BernoulliLossChannel, matched_loss_probability


class TestChannel:
    def test_loss_rate_converges(self):
        channel = BernoulliLossChannel(0.2, random.Random(1))
        losses = sum(channel.corrupts(0, 0.1, 100) for _ in range(5000))
        assert losses / 5000 == pytest.approx(0.2, abs=0.02)

    def test_zero_probability_never_loses(self):
        channel = BernoulliLossChannel(0.0, random.Random(1))
        assert not any(channel.corrupts(0, 0.1, 100) for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliLossChannel(1.0, random.Random(1))
        with pytest.raises(ValueError):
            BernoulliLossChannel(-0.1, random.Random(1))


class TestMatching:
    def test_matches_steady_state_average(self):
        # good 10 s / bad 1 s, default BERs, 1536-bit frames:
        # survive_good ~ 0.9985, survive_bad ~ 2e-7.
        p = matched_loss_probability(10.0, 1.0)
        expected = 1 - (10 / 11) * 0.99846 - (1 / 11) * 2e-7
        assert p == pytest.approx(expected, abs=1e-3)

    def test_empirical_agreement_with_burst_channel(self):
        """The matched Bernoulli channel loses the same fraction of
        frames as the burst channel it imitates (long-run average)."""
        from repro.channel import markov_channel

        losses = 0
        trials = 20_000
        for seed in (7, 11):
            burst = markov_channel(
                10.0, 1.0, rng=random.Random(seed),
                sojourn_rng=random.Random(seed + 1),
            )
            t = 0.0
            for _ in range(trials):
                losses += burst.corrupts(t, 0.08, 1536)
                t += 0.08
        empirical = losses / (2 * trials)
        matched = matched_loss_probability(10.0, 1.0)
        # Boundary-straddling frames push the burst channel slightly
        # above the time-share estimate; agreement within a few points
        # of loss rate is what "matched" promises.
        assert empirical == pytest.approx(matched, abs=0.035)

    def test_validation(self):
        with pytest.raises(ValueError):
            matched_loss_probability(0, 1)
