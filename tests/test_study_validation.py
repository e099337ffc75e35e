"""The invariant checkers on every study, not only the Fig. 2 scenario.

The handoff, CSDP and interactive studies are topology classes that
list their ``connections`` and wireless ``ports``, so the six default
checkers, the event log, replay bundles and validated campaigns reach
them through the same path as a :class:`~repro.experiments.topology.Scenario`.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.csdp import study
from repro.csdp.study import CsdpStudy, CsdpStudyConfig
from repro.experiments.parallel import ParallelRunner
from repro.experiments.topology import Scheme
from repro.handoff import topology as handoff_topology
from repro.handoff.topology import HandoffConfig, HandoffScenario, HandoffScheme
from repro.validate.bundle import load_bundle
from repro.validate.checkers import default_checkers
from repro.validate.engine import InvariantViolationError, Validator, run_validated
from repro.validate.testing import BackwardsAckSender
from repro.workloads.interactive import InteractiveConfig, InteractiveSession

TINY = 12 * 1024


def handoff_config(scheme=HandoffScheme.BASELINE, seed=1):
    return HandoffConfig(
        scheme=scheme, handoff_interval=3.0, transfer_bytes=TINY, seed=seed
    )


def csdp_config(scheduler="fifo", seed=1):
    return CsdpStudyConfig(
        scheduler=scheduler, n_connections=3, transfer_bytes=TINY, seed=seed
    )


def checked_run(topology):
    """Run ``topology`` under the default checkers; every connection's
    sender and sink and every port must carry a checker's wrapper."""
    Validator(default_checkers(topology)).attach(topology)
    for sender, sink in topology.connections:
        assert {"receive", "_handle_icmp"} <= vars(sender).keys()
        assert "_deliver" in vars(sink)
    assert topology.ports
    for port in topology.ports:
        assert "_transmit" in vars(port)
    return run_validated(topology, bundle_dir=False)


class TestCheckersOnEveryStudy:
    @pytest.mark.parametrize("scheme", list(HandoffScheme), ids=lambda s: s.value)
    def test_handoff_runs_clean(self, scheme):
        scenario = HandoffScenario(handoff_config(scheme))
        result = scenario.outcome(run_validated(scenario, bundle_dir=False))
        assert result.completed and result.handoffs > 0
        assert checked_run(HandoffScenario(handoff_config(scheme))) == result

    @pytest.mark.parametrize("scheduler", ["fifo", "rr", "csdp"])
    def test_csdp_runs_clean(self, scheduler):
        result = checked_run(CsdpStudy(csdp_config(scheduler)))
        assert result.all_completed
        assert len(result.completion_times) == 3

    @pytest.mark.parametrize(
        "scheme", [Scheme.BASIC, Scheme.EBSN, Scheme.SPLIT], ids=lambda s: s.value
    )
    def test_interactive_runs_clean(self, scheme):
        session = InteractiveSession(InteractiveConfig(scheme=scheme, keystrokes=40))
        assert session.outcome(checked_run(session)).completed

    @pytest.mark.parametrize(
        "scheme", [Scheme.BASIC, Scheme.EBSN, Scheme.SPLIT], ids=lambda s: s.value
    )
    def test_interactive_session_delivers_every_keystroke(self, scheme):
        session = InteractiveSession(InteractiveConfig(scheme=scheme, keystrokes=40))
        assert session.outcome(session.run()).latency.count == 40


@pytest.fixture
def backwards_acks(monkeypatch):
    """Build every handoff and CSDP source as a sender that rewinds
    ``snd_una``."""
    monkeypatch.setattr(handoff_topology, "TahoeSender", BackwardsAckSender)
    monkeypatch.setattr(study, "TahoeSender", BackwardsAckSender)


@pytest.mark.usefixtures("backwards_acks")
class TestFaultDoubleInAStudy:
    @pytest.mark.parametrize(
        "topology, config",
        [(HandoffScenario, handoff_config()), (CsdpStudy, csdp_config())],
        ids=["handoff", "csdp"],
    )
    def test_caught_bundled_and_replayed(self, topology, config, tmp_path, capsys):
        with pytest.raises(InvariantViolationError) as excinfo:
            run_validated(topology(config), bundle_dir=tmp_path)
        first = excinfo.value.violations[0]
        assert first.checker == "tcp-state"
        assert first.message.startswith("snd_una moved backwards")
        bundle = load_bundle(excinfo.value.bundle_path)
        assert bundle.config == config
        assert bundle.event_log_tail

        assert main(["replay", excinfo.value.bundle_path]) == 0
        out = capsys.readouterr().out
        assert f"{type(config).__name__}" in out
        assert "REPRODUCED" in out


class TestValidatedStudyCampaign:
    def test_handoff_campaign_runs_under_the_checkers(self):
        configs = [handoff_config(seed=seed) for seed in (1, 2)]
        validated = ParallelRunner(validate=True).run(configs)
        assert validated == ParallelRunner(validate=False).run(configs)

    @pytest.mark.usefixtures("backwards_acks")
    def test_a_violation_in_a_handoff_campaign_is_caught(self):
        with pytest.raises(InvariantViolationError, match="snd_una moved backwards"):
            ParallelRunner(validate=True).run([handoff_config()])
