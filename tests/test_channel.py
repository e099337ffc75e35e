"""Unit and property tests for the two-state burst-error channel."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.channel import (
    ChannelState,
    DeterministicSojourns,
    ExponentialSojourns,
    TwoStateChannel,
    deterministic_channel,
    markov_channel,
)


class TestDeterministicSojourns:
    def test_constant_lengths(self):
        src = DeterministicSojourns(10.0, 4.0)
        assert src.next_sojourn(ChannelState.GOOD) == 10.0
        assert src.next_sojourn(ChannelState.BAD) == 4.0

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            DeterministicSojourns(0.0, 4.0)
        with pytest.raises(ValueError):
            DeterministicSojourns(10.0, -1.0)


class TestExponentialSojourns:
    def test_mean_is_respected(self, rng):
        src = ExponentialSojourns(10.0, 2.0, rng)
        samples = [src.next_sojourn(ChannelState.GOOD) for _ in range(4000)]
        assert 9.0 < sum(samples) / len(samples) < 11.0

    def test_bad_state_uses_bad_mean(self, rng):
        src = ExponentialSojourns(10.0, 2.0, rng)
        samples = [src.next_sojourn(ChannelState.BAD) for _ in range(4000)]
        assert 1.8 < sum(samples) / len(samples) < 2.2

    def test_invalid_means_rejected(self, rng):
        with pytest.raises(ValueError):
            ExponentialSojourns(-1.0, 2.0, rng)


class TestStateTimeline:
    def test_starts_in_good_state(self):
        channel = deterministic_channel(10.0, 4.0)
        assert channel.state_at(0.0) is ChannelState.GOOD

    def test_deterministic_cycle(self):
        channel = deterministic_channel(10.0, 4.0)
        assert channel.state_at(5.0) is ChannelState.GOOD
        assert channel.state_at(10.5) is ChannelState.BAD
        assert channel.state_at(13.9) is ChannelState.BAD
        assert channel.state_at(14.1) is ChannelState.GOOD
        assert channel.state_at(24.5) is ChannelState.BAD  # second cycle

    def test_queries_may_look_back(self):
        """A later query must not corrupt earlier-history answers."""
        channel = deterministic_channel(10.0, 4.0)
        assert channel.state_at(100.0) is channel.state_at(100.0)
        # Now look far back; the timeline was materialized beyond this.
        assert channel.state_at(10.5) is ChannelState.BAD

    def test_negative_time_rejected(self):
        channel = deterministic_channel(10.0, 4.0)
        with pytest.raises(ValueError):
            channel.state_at(-1.0)

    @pytest.mark.parametrize(
        "query",
        [lambda c: c.exposure(-1.0, 0.1, 8), lambda c: list(c.intervals(-1.0, 0.0))],
        ids=["exposure", "intervals"],
    )
    def test_negative_start_rejected(self, query):
        channel = deterministic_channel(10.0, 4.0)
        with pytest.raises(ValueError, match=r"start must be >= 0, got -1\.0"):
            query(channel)

    def test_intervals_cover_query_range(self):
        channel = deterministic_channel(10.0, 4.0)
        segments = list(channel.intervals(8.0, 16.0))
        assert segments[0][0] == 8.0
        assert segments[-1][1] == 16.0
        states = [s for (_, _, s) in segments]
        assert states == [ChannelState.GOOD, ChannelState.BAD, ChannelState.GOOD]

    def test_intervals_are_contiguous(self):
        channel = deterministic_channel(3.0, 1.0)
        segments = list(channel.intervals(0.0, 20.0))
        for (_, end_a, _), (start_b, _, _) in zip(segments, segments[1:]):
            assert end_a == start_b


class TestExposure:
    def test_all_good_interval(self):
        channel = deterministic_channel(10.0, 4.0)
        bits_good, bits_bad = channel.exposure(1.0, 2.0, 1000)
        assert bits_good == 1000 and bits_bad == 0

    def test_all_bad_interval(self):
        channel = deterministic_channel(10.0, 4.0)
        bits_good, bits_bad = channel.exposure(10.5, 2.0, 1000)
        assert bits_good == 0 and bits_bad == 1000

    def test_straddling_transition_splits_bits(self):
        channel = deterministic_channel(10.0, 4.0)
        bits_good, bits_bad = channel.exposure(9.0, 2.0, 1000)
        assert bits_good == pytest.approx(500)
        assert bits_bad == pytest.approx(500)

    def test_zero_duration_uses_point_state(self):
        channel = deterministic_channel(10.0, 4.0)
        assert channel.exposure(11.0, 0.0, 100) == (0.0, 100.0)

    def test_bits_conserved(self):
        channel = deterministic_channel(3.0, 2.0)
        bits_good, bits_bad = channel.exposure(1.0, 13.0, 999)
        assert bits_good + bits_bad == pytest.approx(999)


class TestCorruption:
    def test_deterministic_good_state_survives(self):
        channel = deterministic_channel(10.0, 4.0)
        # 1536 air bits in the good state: expected errors ~0.0015.
        assert not channel.corrupts(1.0, 0.08, 1536)

    def test_deterministic_bad_state_corrupts(self):
        channel = deterministic_channel(10.0, 4.0)
        # 1536 air bits at BER 1e-2: ~15 expected errors.
        assert channel.corrupts(10.5, 0.08, 1536)

    def test_survival_probability_matches_formula(self, rng):
        channel = markov_channel(10.0, 4.0, rng)
        # Force a known state window by querying inside first sojourn.
        p = channel.survival_probability(0.0, 0.01, 1536)
        expected = math.exp(1536 * math.log1p(-1e-6))
        assert p == pytest.approx(expected)

    def test_stochastic_bad_state_loses_most_frames(self):
        rng = random.Random(7)
        channel = TwoStateChannel(
            DeterministicSojourns(10.0, 4.0), 1e-6, 1e-2, rng=rng
        )
        lost = sum(
            channel.corrupts(10.1 + i * 1e-4, 0.0, 1536) for i in range(200)
        )
        assert lost > 190  # survival ~2e-7 per frame

    def test_stochastic_good_state_loses_few_frames(self):
        rng = random.Random(7)
        channel = TwoStateChannel(
            DeterministicSojourns(100.0, 1.0), 1e-6, 1e-2, rng=rng
        )
        lost = sum(channel.corrupts(0.0, 0.0, 1536) for _ in range(500))
        assert lost < 10  # loss ~0.15% per frame

    def test_counters(self):
        channel = deterministic_channel(10.0, 4.0)
        channel.corrupts(1.0, 0.01, 100)
        channel.corrupts(10.5, 0.01, 1536)
        assert channel.frames_tested == 2
        assert channel.frames_corrupted == 1

    def test_stochastic_mode_requires_rng(self):
        with pytest.raises(ValueError):
            TwoStateChannel(DeterministicSojourns(1, 1), 1e-6, 1e-2)

    def test_invalid_ber_rejected(self, rng):
        with pytest.raises(ValueError):
            TwoStateChannel(DeterministicSojourns(1, 1), -0.1, 1e-2, rng=rng)


class TestGoodFraction:
    def test_empirical_matches_steady_state(self, rng):
        channel = markov_channel(10.0, 2.0, rng)
        horizon = 40_000.0
        good_time = sum(
            end - start
            for start, end, state in channel.intervals(0.0, horizon)
            if state is ChannelState.GOOD
        )
        assert good_time / horizon == pytest.approx(10.0 / 12.0, rel=0.05)


class TestPropertyBased:
    @given(
        start=st.floats(min_value=0, max_value=500),
        duration=st.floats(min_value=0, max_value=50),
        nbits=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=60)
    def test_exposure_conserves_bits(self, start, duration, nbits):
        channel = deterministic_channel(7.0, 3.0)
        bits_good, bits_bad = channel.exposure(start, duration, nbits)
        assert bits_good >= 0 and bits_bad >= 0
        # Conservation up to float noise (tiny durations at large
        # offsets lose a few ulps in the interval arithmetic).
        assert bits_good + bits_bad == pytest.approx(nbits, abs=1e-4 * max(nbits, 1))

    @given(
        start=st.floats(min_value=0, max_value=200),
        duration=st.floats(min_value=0.001, max_value=10),
    )
    @settings(max_examples=60)
    def test_survival_probability_in_unit_interval(self, start, duration):
        rng = random.Random(3)
        channel = markov_channel(5.0, 2.0, rng)
        p = channel.survival_probability(start, duration, 2048)
        assert 0.0 <= p <= 1.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_timeline_deterministic_given_seed(self, seed):
        def build():
            return markov_channel(5.0, 1.0, random.Random(seed))

        a, b = build(), build()
        assert [s for (_, _, s) in a.intervals(0, 100)] == [
            s for (_, _, s) in b.intervals(0, 100)
        ]


class TestFastPathEquivalence:
    """The O(1) single-sojourn fast path must be invisible.

    Twin channels share a seed; one has its fast-path cache wiped
    before every query so it always takes the full segment walk.  The
    fast channel must produce bit-identical exposure splits, identical
    corruption decisions, and leave both the corruption RNG and the
    sojourn RNG in exactly the same state — i.e. the fast path neither
    draws nor skips a single random number.
    """

    @staticmethod
    def _twins(seed):
        def build():
            return markov_channel(
                5.0,
                1.0,
                random.Random(seed),
                sojourn_rng=random.Random(seed + 1),
            )

        return build(), build()

    @staticmethod
    def _rng_states(channel):
        return (channel._rng.getstate(), channel._sojourns._rng.getstate())

    @given(
        seed=st.integers(min_value=0, max_value=9999),
        queries=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=80),
                st.floats(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=4096),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=60)
    def test_exposure_fast_and_forced_slow_agree(self, seed, queries):
        fast, slow = self._twins(seed)
        for start, duration, nbits in queries:
            slow._fast_hi = slow._fast_lo - 1.0  # wipe: force the segment walk
            assert fast.exposure(start, duration, nbits) == slow.exposure(
                start, duration, nbits
            )
            assert self._rng_states(fast) == self._rng_states(slow)

    @given(
        seed=st.integers(min_value=0, max_value=9999),
        queries=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=80),
                st.floats(min_value=0.0001, max_value=2),
                st.integers(min_value=1, max_value=4096),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=60)
    def test_corrupts_fast_and_forced_slow_agree(self, seed, queries):
        fast, slow = self._twins(seed)
        for start, duration, nbits in queries:
            slow._fast_hi = slow._fast_lo - 1.0  # wipe: force the segment walk
            assert fast.corrupts(start, duration, nbits) == slow.corrupts(
                start, duration, nbits
            )
            assert self._rng_states(fast) == self._rng_states(slow)

    def test_paper_default_wan_run_hits_the_fast_path(self):
        from repro.experiments.config import wan_scenario
        from repro.experiments.topology import Scenario, Scheme

        scenario = Scenario(wan_scenario(scheme=Scheme.EBSN, record_trace=False))
        scenario.run()
        channel = scenario.channel
        total = channel.fast_path_hits + channel.fast_path_misses
        assert total == channel.frames_tested
        assert channel.fast_path_hits / total > 0.90
