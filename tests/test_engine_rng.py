"""Unit tests for named deterministic random streams."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.engine import RandomStreams


class TestStreams:
    def test_same_name_returns_same_stream(self, streams):
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_give_different_sequences(self, streams):
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        first = [RandomStreams(7).stream("chan").random() for _ in range(3)]
        second = [RandomStreams(7).stream("chan").random() for _ in range(3)]
        assert first == second

    def test_different_seeds_differ(self):
        assert RandomStreams(1).stream("x").random() != RandomStreams(2).stream("x").random()

    def test_stream_isolation(self):
        """Consuming one stream must not perturb another."""
        reference = RandomStreams(9)
        expected = [reference.stream("b").random() for _ in range(4)]

        perturbed = RandomStreams(9)
        for _ in range(100):
            perturbed.stream("a").random()  # heavy use of another stream
        actual = [perturbed.stream("b").random() for _ in range(4)]
        assert actual == expected

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("not-an-int")  # type: ignore[arg-type]


class TestFork:
    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    def test_any_seed_and_name_work(self, seed, name):
        value = RandomStreams(seed).stream(name).random()
        assert 0.0 <= value < 1.0
