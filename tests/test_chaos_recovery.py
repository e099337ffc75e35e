"""Chaos tests: the campaign layer under injected faults.

Each test injects a real fault — a SIGKILLed worker, a hung unit, a
Ctrl-C mid-campaign — and asserts the recovery contract: retried units
produce aggregates bit-identical to an undisturbed serial run, units
that fail for good are quarantined with a structured record, and a
journal makes an interrupted campaign resumable without re-simulating
completed work.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.engine.simulator import WallClockExceeded
from repro.experiments import topology
from repro.experiments.config import wan_scenario
from repro.experiments.faults import (
    FAULT_ERROR,
    FAULT_TIMEOUT,
    CampaignInterrupted,
)
from repro.experiments.journal import CampaignJournal
from repro.experiments.runner import run_replicated, sweep_campaign
from repro.handoff import topology as handoff_topology

from tests.test_experiments_parallel import assert_identical_aggregates

TINY = 5 * 1024


def handoff_campaign(replications=4, workers=1, **campaign):
    """One handoff study point, seeds 3 onwards, as a campaign."""
    config = handoff_topology.HandoffConfig(handoff_interval=2.0, transfer_bytes=TINY)
    return sweep_campaign(
        [0], lambda _: config, replications, base_seed=3, workers=workers, **campaign
    )

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised pool requires the fork start method",
)

#: Both executors share one fault path, so the same fault cases run
#: in-process (1 worker) and on the supervised pool (2 workers).
both_executors = pytest.mark.parametrize(
    "workers", [1, pytest.param(2, marks=needs_fork)], ids=["serial", "pool"]
)


@pytest.fixture()
def bundle_dir(tmp_path, monkeypatch):
    """Keep replay bundles out of the repo's default bundle dir."""
    target = tmp_path / "bundles"
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(target))
    return target


class TestWorkerCrashRecovery:
    @needs_fork
    def test_sigkilled_worker_is_retried_bit_identical(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        """SIGKILL one worker mid-campaign; aggregates must not change."""
        config = wan_scenario(transfer_bytes=TINY)
        baseline = run_replicated(config, replications=4, base_seed=3, workers=1)

        flag = tmp_path / "killed-once"
        parent_pid = os.getpid()
        original = topology.run_scenario

        def chaotic(cfg, **kwargs):
            # First worker to pick up a unit kills itself, exactly once.
            # The parent-pid guard keeps the test process alive.
            if os.getpid() != parent_pid:
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", chaotic)
        recovered = run_replicated(config, replications=4, base_seed=3, workers=3)
        assert flag.exists(), "the chaos SIGKILL never fired"
        assert_identical_aggregates(baseline, recovered)
        assert [r.metrics for r in baseline.results] == [
            r.metrics for r in recovered.results
        ]

    @needs_fork
    def test_sigkilled_worker_in_a_study_campaign_is_retried(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        """A study unit's killed worker is retried like a scenario's."""
        baseline = handoff_campaign().points[0]
        flag = tmp_path / "killed-once"
        parent_pid = os.getpid()
        original = handoff_topology.HandoffScenario.run

        def chaotic(scenario, **kwargs):
            if os.getpid() != parent_pid:
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
            return original(scenario, **kwargs)

        monkeypatch.setattr(handoff_topology.HandoffScenario, "run", chaotic)
        recovered = handoff_campaign(workers=3).points[0]
        assert flag.exists(), "the chaos SIGKILL never fired"
        assert recovered.results == baseline.results
        assert not recovered.failures

    @needs_fork
    def test_unresponsive_worker_is_hard_killed_and_retried(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        """A worker stuck past the hard deadline is killed, not waited on."""
        config = wan_scenario(transfer_bytes=TINY)
        baseline = run_replicated(config, replications=3, base_seed=1, workers=1)

        flag = tmp_path / "hung-once"
        original = topology.run_scenario

        def hang_once(cfg, **kwargs):
            if cfg.seed == 2:
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    time.sleep(60)  # parent hard-kills long before this
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", hang_once)
        start = time.monotonic()
        recovered = run_replicated(
            config, replications=3, base_seed=1, workers=2, timeout=0.2
        )
        assert time.monotonic() - start < 30.0
        assert flag.exists(), "the chaos hang never fired"
        assert_identical_aggregates(baseline, recovered)


class TestTimeoutQuarantine:
    def test_engine_watchdog_aborts_a_runaway_simulation(self):
        from repro.engine.simulator import Simulator

        sim = Simulator()

        def forever():
            sim.schedule(1e-9, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(WallClockExceeded) as info:
            sim.run(wall_timeout=0.05)
        assert info.value.budget == 0.05
        assert info.value.events > 0

    @both_executors
    def test_timed_out_unit_quarantined_with_partial_results(
        self, monkeypatch, bundle_dir, workers
    ):
        """A persistently hung seed degrades the point, never the campaign."""
        config = wan_scenario(transfer_bytes=TINY)
        original = topology.run_scenario

        def hung_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise WallClockExceeded(0.2, 0.1, 1234)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", hung_seed)
        result = run_replicated(
            config,
            replications=3,
            workers=workers,
            timeout=0.1,
            retries=1,
            fail_fast=False,
        )
        assert result.partial
        assert result.replications == 2 and result.attempted == 3
        (failure,) = result.failures
        assert failure.kind == FAULT_TIMEOUT
        assert failure.seed == 2 and failure.index == 1
        assert failure.attempts == 2  # first try + one retry
        assert failure.bundle_path is not None
        assert os.path.isfile(failure.bundle_path)
        assert not result.report.complete
        assert "PARTIAL" in result.report.describe()

    def test_timeout_exhaustion_raises_in_fail_fast_mode(
        self, monkeypatch, bundle_dir
    ):
        from repro.experiments.faults import UnitTimeout

        monkeypatch.setattr(
            topology,
            "run_scenario",
            lambda cfg, **kwargs: (_ for _ in ()).throw(
                WallClockExceeded(0.2, 0.1, 99)
            ),
        )
        with pytest.raises(UnitTimeout):
            run_replicated(
                wan_scenario(transfer_bytes=TINY),
                replications=2,
                timeout=0.1,
                retries=0,
            )


class TestDeterministicErrors:
    @both_executors
    def test_unit_error_is_never_retried(
        self, tmp_path, monkeypatch, bundle_dir, workers
    ):
        config = wan_scenario(transfer_bytes=TINY)
        calls = tmp_path / "calls"  # a file, so pool workers can append
        original = topology.run_scenario

        def broken_seed(cfg, **kwargs):
            with open(calls, "a") as log:
                log.write(f"{cfg.seed}\n")
            if cfg.seed == 2:
                raise ValueError("deterministically broken unit")
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        result = run_replicated(
            config, replications=3, workers=workers, retries=5, fail_fast=False
        )
        assert result.partial
        (failure,) = result.failures
        assert failure.kind == FAULT_ERROR
        assert failure.seed == 2 and failure.index == 1
        assert failure.attempts == 1  # retrying cannot help
        assert calls.read_text().split().count("2") == 1

    @both_executors
    def test_fail_fast_reraises_the_original_error_from_the_pool(
        self, monkeypatch, bundle_dir, workers
    ):
        original = topology.run_scenario

        def broken_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise ValueError("deterministically broken unit")
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        with pytest.raises(ValueError, match="deterministically broken"):
            run_replicated(
                wan_scenario(transfer_bytes=TINY), replications=3, workers=workers
            )


    def test_study_unit_failure_names_its_scheduler(self, monkeypatch, bundle_dir):
        """A CSDP study has no scheme: its failure record names the
        scheduler, and the point keeps its surviving seeds in order."""
        from repro.csdp import CsdpStudyConfig, study

        original = study.CsdpStudy.run

        def broken_seed(scenario, **kwargs):
            if scenario.config.seed == 2:
                raise ValueError("deterministically broken unit")
            return original(scenario, **kwargs)

        monkeypatch.setattr(study.CsdpStudy, "run", broken_seed)
        point = sweep_campaign(
            ["rr"],
            lambda sched: CsdpStudyConfig(
                scheduler=sched, n_connections=2, transfer_bytes=TINY
            ),
            3,
            fail_fast=False,
        ).points["rr"]
        (failure,) = point.failures
        assert (failure.scheme, failure.seed) == ("rr", 2)
        assert "seed 2, scheme rr" in failure.describe()
        assert [result.config.seed for result in point.results] == [1, 3]


class TestInterruptAndResume:
    def test_sigint_flushes_journal_and_exits_cleanly(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        """Ctrl-C mid-campaign: completed units are already durable."""
        journal_path = tmp_path / "camp.journal"
        config = wan_scenario(transfer_bytes=TINY)
        baseline = run_replicated(config, replications=4, workers=1)

        calls = []
        original = topology.run_scenario

        def interrupting(cfg, **kwargs):
            calls.append(cfg.seed)
            if len(calls) == 3:
                # Delivered to this process; the campaign's flag handler
                # lets the in-flight unit finish, then aborts cleanly.
                os.kill(os.getpid(), signal.SIGINT)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", interrupting)
        journal = CampaignJournal(journal_path)
        with pytest.raises(CampaignInterrupted) as info:
            run_replicated(config, replications=4, workers=1, journal=journal)
        journal.close()
        assert info.value.completed == 3
        assert info.value.total == 4
        assert str(journal_path) in str(info.value)

        # Resume: only the un-journaled unit simulates.
        calls.clear()
        resumed_journal = CampaignJournal(journal_path)
        result = run_replicated(
            config, replications=4, workers=1, journal=resumed_journal
        )
        resumed_journal.close()
        assert calls == [4]  # seeds 1-3 came from the journal
        assert result.report.from_journal == 3
        assert_identical_aggregates(baseline, result)

    def test_resume_skips_every_journaled_unit(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "camp.journal"
        config = wan_scenario(transfer_bytes=TINY)
        with CampaignJournal(journal_path) as journal:
            run_replicated(config, replications=2, journal=journal)

        calls = []
        original = topology.run_scenario

        def counting(cfg, **kwargs):
            calls.append(cfg.seed)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", counting)
        with CampaignJournal(journal_path) as journal:
            result = run_replicated(config, replications=4, journal=journal)
        assert calls == [3, 4]  # the superset's new seeds only
        assert result.report.from_journal == 2
        assert result.report.simulated == 2
        assert result.replications == 4

    def test_resume_of_a_study_campaign_skips_journaled_units(
        self, tmp_path, monkeypatch
    ):
        journal_path = tmp_path / "study.journal"
        with CampaignJournal(journal_path) as journal:
            handoff_campaign(replications=2, journal=journal)

        calls = []
        original = handoff_topology.HandoffScenario.run

        def counting(scenario, **kwargs):
            calls.append(scenario.config.seed)
            return original(scenario, **kwargs)

        monkeypatch.setattr(handoff_topology.HandoffScenario, "run", counting)
        with CampaignJournal(journal_path) as journal:
            resumed = handoff_campaign(journal=journal)
        assert calls == [5, 6]  # the superset's new seeds only
        assert resumed.report.from_journal == 2
        assert resumed.points[0].results == handoff_campaign().points[0].results

    def test_quarantine_is_journaled_but_not_marked_done(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        journal_path = tmp_path / "camp.journal"
        config = wan_scenario(transfer_bytes=TINY)
        original = topology.run_scenario

        def broken_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise ValueError("broken")
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        with CampaignJournal(journal_path) as journal:
            result = run_replicated(
                config, replications=3, journal=journal, fail_fast=False
            )
        assert result.partial
        text = journal_path.read_text()
        assert '"kind": "failure"' in text
        # A failure record never satisfies a resume: the unit re-runs.
        monkeypatch.setattr(topology, "run_scenario", original)
        with CampaignJournal(journal_path) as journal:
            healed = run_replicated(config, replications=3, journal=journal)
        assert not healed.partial
        assert healed.report.from_journal == 2
