"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.engine import Simulator, SimulationError


class TestScheduling:
    def test_initial_time_is_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "latest")
        sim.run()
        assert fired == ["early", "late", "latest"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_same_time_events_run_in_scheduling_order(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(5.0, fired.append, "x")
        sim.run()
        assert sim.now == 5.0 and fired == ["x"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_times_rejected(self, sim):
        """A NaN entry would break heap order and run time backwards."""
        fired = []
        sim.schedule(1.0, fired.append, "one")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), fired.append, "nan")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), fired.append, "nan")
        sim.schedule(2.0, fired.append, "two")
        sim.schedule(0.5, fired.append, "half")
        sim.run()
        assert fired == ["half", "one", "two"]

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_events_scheduled_during_execution(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "no")
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()

    def test_cancel_from_within_earlier_event(self, sim):
        fired = []
        later = sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, sim.cancel, later)
        sim.run()
        assert fired == []

    def test_pending_count_excludes_cancelled(self, sim):
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(e1)
        assert sim.pending_count() == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=3.0)
        assert fired == ["a"]
        assert sim.now == 3.0

    def test_run_until_is_inclusive(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "edge")
        sim.run(until=3.0)
        assert fired == ["edge"]

    def test_run_until_advances_clock_when_heap_drains(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_resume_after_until(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=3.0)
        sim.run()
        assert fired == ["b"]

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]

    def test_events_executed_counter(self, sim):
        for i in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_execution_order_is_sorted_by_time(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda t=d: fired.append(t))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_cancelled_events_never_fire(self, spec):
        sim = Simulator()
        fired = []
        events = []
        for delay, cancel in spec:
            events.append((sim.schedule(delay, fired.append, delay), cancel))
        for event, cancel in events:
            if cancel:
                sim.cancel(event)
        sim.run()
        expected = sorted(d for (d, c) in spec if not c)
        assert fired == expected


class TestHeapCompaction:
    def test_pending_count_is_live_count(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events[:4]:
            sim.cancel(event)
        assert sim.pending_count() == 6

    def test_compaction_preserves_execution_order(self, sim):
        fired = []
        events = [
            sim.schedule(float(i % 13) + 1.0, fired.append, i) for i in range(500)
        ]
        cancelled = set()
        for i, event in enumerate(events):
            if i % 3 != 0:
                sim.cancel(event)
                cancelled.add(i)
        sim.run()
        expected = sorted(
            (i for i in range(500) if i not in cancelled),
            key=lambda i: (float(i % 13) + 1.0, i),
        )
        assert fired == expected

    def test_cancel_after_execution_keeps_count_exact(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(event)  # executed; must not corrupt the live count
        assert sim.pending_count() == 0
        survivor = sim.schedule(1.0, lambda: None)
        assert sim.pending_count() == 1
        sim.cancel(survivor)
        assert sim.pending_count() == 0


class TestWallClockWatchdog:
    """The countdown watchdog, exercised without any real waiting.

    The stride countdown must check the wall clock exactly when the
    executed-event count reaches a positive multiple of
    ``WATCHDOG_STRIDE`` — the same abort points as a per-event modulo
    check — and must not perturb an unwatched run.  No SIGALRM, no
    sleeping: a fake monotonic clock drives the abort.
    """

    def test_abort_fires_exactly_at_the_stride_boundary(self, monkeypatch):
        import repro.engine.simulator as simulator_mod
        from repro.engine.simulator import WallClockExceeded

        class FakeTime:
            """monotonic() that advances one second per call."""

            def __init__(self):
                self.calls = 0

            def monotonic(self):
                self.calls += 1
                return float(self.calls)

        monkeypatch.setattr(simulator_mod, "time", FakeTime())
        sim = Simulator()

        def forever():
            sim.schedule(1e-9, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(WallClockExceeded) as info:
            sim.run(wall_timeout=0.0)
        # A zero budget is expired by the first clock check, which the
        # countdown schedules after exactly WATCHDOG_STRIDE events.
        assert info.value.events == Simulator.WATCHDOG_STRIDE
        assert sim.events_executed == Simulator.WATCHDOG_STRIDE

    def test_generous_budget_is_behaviour_identical(self):
        def run_chain(**kwargs):
            sim = Simulator()
            fired = []

            def chain(n):
                fired.append(n)
                if n:
                    sim.schedule(0.001, chain, n - 1)

            sim.schedule(0.0, chain, 3 * Simulator.WATCHDOG_STRIDE)
            sim.run(**kwargs)
            return fired, sim.events_executed, sim.now

        unwatched = run_chain()
        watched = run_chain(wall_timeout=1e9)
        assert watched == unwatched
