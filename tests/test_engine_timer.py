"""Unit tests for the Timer primitive (EBSN's re-arm mechanism)."""

from __future__ import annotations

import pytest

from repro.engine import Simulator, Timer
from repro.experiments.config import lan_scenario
from repro.experiments.topology import Scenario, Scheme


class TestTimerBasics:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.5)
        sim.run()
        assert fired == [2.5]

    def test_not_pending_initially(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.pending
        assert timer.expiry_time is None

    def test_pending_while_armed(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        assert timer.pending
        assert timer.expiry_time == 1.0

    def test_not_pending_after_fire(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        sim.run()
        assert not timer.pending

    def test_double_start_rejected(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        with pytest.raises(RuntimeError):
            timer.start(2.0)

    def test_expiry_count(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert timer.expiry_count == 2


class TestCancelAndRestart:
    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.pending

    def test_cancel_idle_timer_is_noop(self, sim):
        Timer(sim, lambda: None).cancel()

    def test_restart_supersedes_previous_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.restart(5.0)
        sim.run()
        assert fired == [5.0]

    def test_restart_idle_timer_arms_it(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(2.0)
        sim.run()
        assert fired == [2.0]

    def test_repeated_restart_keeps_pushing_deadline(self, sim):
        """The EBSN pattern: each notification pushes the timeout out."""
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        # Re-arm at t=0.5, 1.0, 1.5 — each time for 1 more second.
        for at in (0.5, 1.0, 1.5):
            sim.schedule_at(at, timer.restart, 1.0)
        sim.run()
        assert fired == [2.5]

    def test_restart_from_callback(self, sim):
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.restart(1.0)

        timer = Timer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestLazyRestart:
    """A later restart keeps the heap entry and re-arms when it comes due."""

    def test_later_restarts_push_one_entry(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        for i in range(1, 1001):
            timer.restart(1.0 + i * 0.001)
        assert sim.heap_pushes == 1
        sim.run()
        assert fired == [2.0]
        assert timer.expiry_count == 1

    def test_earlier_restart_fires_early(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        timer.restart(2.0)
        sim.run()
        assert fired == [2.0]

    def test_earlier_restart_after_a_lazy_one(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.restart(5.0)
        timer.restart(3.0)
        sim.run()
        assert fired == [3.0]
        assert timer.expiry_count == 1

    def test_expiry_time_and_pending_across_rearm(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.restart(3.0)
        assert timer.pending
        assert timer.expiry_time == 3.0
        sim.run(until=2.0)  # the stale entry came due and re-armed
        assert timer.expiry_count == 0
        assert timer.pending
        assert timer.expiry_time == 3.0
        sim.run()
        assert not timer.pending
        assert timer.expiry_time is None
        assert timer.expiry_count == 1

    def test_cancel_after_lazy_restart_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.restart(3.0)
        sim.schedule_at(2.0, timer.cancel)  # after the stale entry re-armed
        sim.run()
        assert fired == []
        assert not timer.pending
        assert sim.pending_count() == 0

    def test_restart_from_callback_after_lazy_restart(self, sim):
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 2:
                timer.restart(1.0)
                timer.restart(2.0)

        timer = Timer(sim, on_fire)
        timer.start(1.0)
        timer.restart(2.0)
        sim.run()
        assert fired == [2.0, 4.0]


class TestTimerChurnOnAFullRun:
    """LAN EBSN at bad period 1.0, seed 1: the run the churn came from."""

    @pytest.fixture(scope="class")
    def run(self):
        built = []
        init = Timer.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        Timer.__init__ = counting_init
        try:
            scenario = Scenario(
                lan_scenario(scheme=Scheme.EBSN, bad_period_mean=1.0, seed=1)
            )
            timers_before_run = len(built)
            result = scenario.run()
        finally:
            Timer.__init__ = init
        return scenario, result, timers_before_run, len(built)

    def test_ports_build_no_timer_per_frame(self, run):
        scenario, result, before, after = run
        assert scenario.bs_port.stats.first_transmissions > 1000
        assert after == before
