"""Unit tests for the packet-size advisor (§4.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.packet_size import ErrorCondition, PacketSizeAdvisor


def condition(good=10.0, bad=1.0):
    return ErrorCondition(good_period_mean=good, bad_period_mean=bad)


class TestErrorCondition:
    def test_bad_fraction(self):
        assert condition(10, 4).bad_fraction == pytest.approx(4 / 14)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorCondition(good_period_mean=0, bad_period_mean=1)

    def test_hashable_table_key(self):
        assert condition() == condition()
        assert hash(condition()) == hash(condition())


class TestLearnedTable:
    def test_exact_hit(self):
        advisor = PacketSizeAdvisor()
        advisor.learn(condition(10, 1), 512)
        assert advisor.recommend(condition(10, 1)) == 512

    def test_nearest_neighbour_fallback(self):
        advisor = PacketSizeAdvisor()
        advisor.learn(condition(10, 1), 512)
        advisor.learn(condition(10, 4), 384)
        # bad fraction of (10, 3.5) is nearer to (10, 4) than (10, 1).
        assert advisor.recommend(condition(10, 3.5)) == 384

    def test_empty_table_uses_analytic_model(self):
        advisor = PacketSizeAdvisor()
        best = advisor.recommend(condition(10, 1))
        assert best in advisor.candidate_sizes

    def test_learn_validates_size(self):
        advisor = PacketSizeAdvisor()
        with pytest.raises(ValueError):
            advisor.learn(condition(), 40)

    def test_table_copy_is_isolated(self):
        advisor = PacketSizeAdvisor()
        advisor.learn(condition(), 512)
        table = advisor.table
        table.clear()
        assert advisor.recommend(condition()) == 512


class TestAnalyticModel:
    def test_fragment_count(self):
        advisor = PacketSizeAdvisor(mtu_bytes=128)
        assert advisor.fragment_count(576) == 5

    def test_efficiency_zero_for_header_only(self):
        advisor = PacketSizeAdvisor()
        assert advisor.expected_efficiency(condition(), 40) == 0.0

    def test_efficiency_in_unit_interval(self):
        advisor = PacketSizeAdvisor()
        for size in advisor.candidate_sizes:
            eff = advisor.expected_efficiency(condition(10, 2), size)
            assert 0.0 <= eff <= 1.0

    def test_error_free_channel_prefers_largest(self):
        clean = ErrorCondition(1000.0, 1e-9, ber_good=0.0, ber_bad=0.0)
        advisor = PacketSizeAdvisor()
        assert advisor.analytic_best(clean) == max(advisor.candidate_sizes)

    def test_noisier_channel_prefers_smaller(self):
        """The paper's observation: optimum shrinks as errors worsen."""
        advisor = PacketSizeAdvisor()
        mild = ErrorCondition(10.0, 0.5, ber_bad=1e-2)
        harsh = ErrorCondition(10.0, 6.0, ber_bad=5e-2)
        assert advisor.analytic_best(harsh) <= advisor.analytic_best(mild)

    def test_interior_optimum_for_mild_errors(self):
        """For mild error conditions the best size is neither extreme.

        (The i.i.d. fragment-loss approximation is pessimistic about
        large packets, so under harsh conditions it legitimately picks
        the MTU; the *measured* interior optimum of Fig 7 is exercised
        by the benchmark harness, not this first-cut model.)
        """
        advisor = PacketSizeAdvisor()
        best = advisor.analytic_best(condition(10, 1))
        assert min(advisor.candidate_sizes) < best < max(advisor.candidate_sizes)

    @given(bad=st.floats(min_value=0.1, max_value=10.0))
    def test_analytic_best_always_a_candidate(self, bad):
        advisor = PacketSizeAdvisor()
        assert advisor.analytic_best(condition(10.0, bad)) in advisor.candidate_sizes
