"""Unit tests for the RTT estimator / RTO computation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.tcp.rto import RttEstimator


class TestInitialState:
    def test_initial_rto_before_samples(self):
        est = RttEstimator(initial_rto=3.0)
        assert est.rto() == 3.0
        assert est.srtt is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RttEstimator(granularity=0)
        with pytest.raises(ValueError):
            RttEstimator(initial_rto=-1)
        with pytest.raises(ValueError):
            RttEstimator(granularity=1.0, max_rto=0.5)


class TestSampling:
    def test_first_sample_seeds_estimator(self):
        est = RttEstimator(granularity=0.1)
        est.sample(0.4)  # 4 ticks
        assert est.srtt == 4.0
        assert est.rttvar == 2.0
        # RTO = 4 + 4*2 = 12 ticks = 1.2 s
        assert est.rto() == pytest.approx(1.2)

    def test_jacobson_update(self):
        est = RttEstimator(granularity=0.1)
        est.sample(0.4)
        est.sample(0.8)  # 8 ticks, err = 4
        assert est.srtt == pytest.approx(4.5)
        assert est.rttvar == pytest.approx(2.5)

    def test_constant_rtt_converges_to_low_rto(self):
        est = RttEstimator(granularity=0.1)
        for _ in range(100):
            est.sample(0.5)
        # variance decays toward zero; RTO approaches srtt rounded up,
        # floored at MIN_TICKS.
        assert est.rto() <= 0.7

    def test_rto_floor(self):
        est = RttEstimator(granularity=0.1)
        for _ in range(200):
            est.sample(0.01)  # sub-tick RTTs quantize to 1 tick
        assert est.rto() >= 0.2

    def test_rto_cap(self):
        est = RttEstimator(granularity=0.1, max_rto=64.0)
        for _ in range(10):
            est.sample(500.0)
        assert est.rto() == 64.0

    def test_variance_spike_raises_rto(self):
        """A fade-delayed ACK (the paper's §4.2.3 note) inflates RTO."""
        est = RttEstimator(granularity=0.1)
        for _ in range(20):
            est.sample(0.5)
        quiet_rto = est.rto()
        est.sample(5.0)
        assert est.rto() > quiet_rto * 2

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().sample(-0.1)

    def test_rto_is_whole_ticks(self):
        est = RttEstimator(granularity=0.1)
        est.sample(0.537)
        ticks = est.rto() / 0.1
        assert ticks == pytest.approx(round(ticks))

    def test_samples_counted(self):
        est = RttEstimator()
        est.sample(0.1)
        est.sample(0.2)
        assert est.samples_taken == 2

    def test_reset(self):
        est = RttEstimator(initial_rto=3.0)
        est.sample(0.5)
        est.reset()
        assert est.srtt is None
        assert est.rto() == 3.0


class TestGranularity:
    def test_coarse_clock_quantizes_harder(self):
        fine = RttEstimator(granularity=0.1)
        coarse = RttEstimator(granularity=0.5)
        fine.sample(0.3)
        coarse.sample(0.3)
        # On a 500 ms clock, 0.3 s rounds to 1 tick = 0.5 s.
        assert coarse.srtt == 1.0
        assert fine.srtt == 3.0

    def test_coarse_clock_gives_larger_min_rto(self):
        """Why coarse-timer TCPs don't see local-recovery timeouts (§4.2.1)."""
        fine = RttEstimator(granularity=0.1)
        coarse = RttEstimator(granularity=0.5)
        for _ in range(50):
            fine.sample(0.05)
            coarse.sample(0.05)
        assert coarse.rto() >= 5 * fine.rto()


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=100))
    @settings(max_examples=80)
    def test_rto_always_within_bounds(self, samples):
        est = RttEstimator(granularity=0.1, max_rto=64.0)
        for s in samples:
            est.sample(s)
        assert 0.2 <= est.rto() <= 64.0

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_rto_exceeds_stable_rtt(self, rtt):
        """After convergence on constant RTT, RTO must still exceed it."""
        est = RttEstimator(granularity=0.1)
        for _ in range(50):
            est.sample(rtt)
        assert est.rto() >= min(rtt * 0.95, 64.0 * 0.95)


class TestRobustTimerKnobs:
    def test_larger_k_gives_larger_rto(self):
        low, high = RttEstimator(k=4.0), RttEstimator(k=8.0)
        for est in (low, high):
            for rtt in (0.5, 0.9, 0.4, 1.1):
                est.sample(rtt)
        assert high.rto() > low.rto()

    def test_peak_hold_variance_decays_slowly(self):
        standard = RttEstimator()
        hold = RttEstimator(var_decay_gain=0.05)
        for est in (standard, hold):
            for _ in range(10):
                est.sample(0.5)
            est.sample(5.0)  # delay spike
            for _ in range(10):
                est.sample(0.5)  # back to normal
        assert hold.rttvar > 2 * standard.rttvar
        assert hold.rto() > standard.rto()

    def test_peak_hold_growth_unaffected(self):
        """The asymmetric gain only touches decay, not growth."""
        standard = RttEstimator()
        hold = RttEstimator(var_decay_gain=0.05)
        for est in (standard, hold):
            est.sample(0.5)
            est.sample(5.0)
        assert hold.rttvar == standard.rttvar

    def test_validation(self):
        with pytest.raises(ValueError):
            RttEstimator(k=0)
        with pytest.raises(ValueError):
            RttEstimator(var_decay_gain=0.0)
        with pytest.raises(ValueError):
            RttEstimator(var_decay_gain=1.5)
