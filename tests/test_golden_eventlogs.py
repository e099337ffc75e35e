"""Golden-file regression tests for the ns-style event logs.

Where ``test_golden_traces.py`` freezes the *rendered* Fig 3/5 traces,
these freeze the raw event logs of nine seed-deterministic runs, so
drift anywhere in the event pipeline (link send/receive ordering,
corruption decisions, fragment sizes, uids) shows up as a line diff:

* five Fig. 2 transfers, one per scheme that acts at the base station
  (EBSN, QUENCH, SNOOP and SPLIT on the WAN; LOCAL_RECOVERY on the LAN);
* one small run of each study topology — congestion with ECN, an
  interactive SPLIT session, handoff and CSDP — each large enough to
  show its mechanism acting (``SHOWS``).

Every run is built the way a campaign builds it, through
:func:`~repro.experiments.parallel.topology_of`.  The same files pin
the serializer: parsing a golden and re-writing it must reproduce the
bytes exactly.

Regenerate deliberately after an intended behavior change::

    PYTHONPATH=src python -m tests.test_golden_eventlogs

and record why in the commit message.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.csdp.study import CsdpStudyConfig
from repro.experiments.config import lan_scenario, wan_scenario
from repro.experiments.congestion import CongestedScenarioConfig
from repro.experiments.parallel import topology_of
from repro.experiments.topology import Scheme
from repro.handoff.topology import HandoffConfig
from repro.metrics.eventlog import EventLog, attach_to_scenario
from repro.net.packet import pinned_uids
from repro.tcp import TcpConfig
from repro.workloads.interactive import InteractiveConfig

DATA = Path(__file__).parent / "data"

#: name -> scenario config for each golden log.  Small transfers keep
#: the files reviewable; the seeds make every channel decision (and so
#: every logged event) reproducible.
GOLDEN_SCENARIOS = {
    "golden_eventlog_wan_ebsn": lambda: wan_scenario(
        scheme=Scheme.EBSN,
        transfer_bytes=6 * 1024,
        bad_period_mean=2.0,
        seed=7,
        record_trace=False,
    ),
    "golden_eventlog_lan_local_recovery": lambda: lan_scenario(
        scheme=Scheme.LOCAL_RECOVERY,
        transfer_bytes=48 * 1024,
        bad_period_mean=0.04,
        seed=7,
    ),
    **{
        f"golden_eventlog_wan_{scheme.value}": (
            lambda scheme=scheme: wan_scenario(
                scheme=scheme,
                transfer_bytes=6 * 1024,
                bad_period_mean=2.0,
                seed=7,
                record_trace=False,
            )
        )
        for scheme in (Scheme.SNOOP, Scheme.SPLIT, Scheme.QUENCH)
    },
    "golden_eventlog_congested_ebsn_ecn": lambda: CongestedScenarioConfig(
        scheme=Scheme.EBSN,
        ecn=True,
        cross_load=0.9,
        tcp=TcpConfig(transfer_bytes=4 * 1024),
        seed=7,
    ),
    "golden_eventlog_interactive_split": lambda: InteractiveConfig(
        scheme=Scheme.SPLIT, keystrokes=10, seed=7
    ),
    "golden_eventlog_handoff": lambda: HandoffConfig(
        handoff_interval=3.0, transfer_bytes=12 * 1024, seed=7
    ),
    "golden_eventlog_csdp": lambda: CsdpStudyConfig(
        scheduler="csdp", n_connections=2, transfer_bytes=6 * 1024, seed=7
    ),
}

#: name -> what its run must show besides the log (default: that it
#: completed).  A golden whose run never reaches its scheme's or its
#: study's mechanism pins none of that mechanism's code.
SHOWS = {
    "golden_eventlog_wan_quench": lambda s, r: (
        r.completed and s.quench_generator.quench_sent > 0
    ),
    "golden_eventlog_wan_split": lambda s, r: (
        r.completed and s.split_relay.wireless_sender.closed
    ),
    "golden_eventlog_congested_ebsn_ecn": lambda s, r: (
        r.completed and s.wired_down.ecn_marks > 0
    ),
    "golden_eventlog_interactive_split": lambda s, r: (
        r.completed and s.split_relay.wireless_sender.closed
    ),
    "golden_eventlog_handoff": lambda s, r: r.completed and r.handoffs > 0,
    "golden_eventlog_csdp": lambda s, r: (
        r.all_completed and s.radio.scheduler.skips > 0
    ),
}

#: The goldens added with the study runs; the first two have their own
#: tests below.
LATER_GOLDENS = sorted(set(GOLDEN_SCENARIOS) - {
    "golden_eventlog_wan_ebsn", "golden_eventlog_lan_local_recovery"
})


def generate_log(name: str) -> EventLog:
    """Run the named golden scenario and return its event log.

    The process-wide datagram/frame uid counters are pinned to 1 for
    the run (uids are labels — behavior never reads them), so the
    logged lines are identical no matter how many packets earlier
    tests created.
    """
    config = GOLDEN_SCENARIOS[name]()
    with pinned_uids():
        scenario = topology_of(config)(config)
        log = attach_to_scenario(scenario)
        result = scenario.run()
    shows = SHOWS.get(name, lambda s, r: r.completed)
    assert shows(scenario, result), f"golden run {name} misses its mechanism"
    return log


def log_text(log: EventLog) -> str:
    buffer = io.StringIO()
    log.write(buffer)
    return buffer.getvalue()


class TestGoldenEventLogs:
    def test_wan_ebsn_log_unchanged(self):
        golden = (DATA / "golden_eventlog_wan_ebsn.txt").read_text()
        assert log_text(generate_log("golden_eventlog_wan_ebsn")) == golden

    def test_lan_local_recovery_log_unchanged(self):
        golden = (DATA / "golden_eventlog_lan_local_recovery.txt").read_text()
        assert (
            log_text(generate_log("golden_eventlog_lan_local_recovery")) == golden
        )

    @pytest.mark.parametrize("name", LATER_GOLDENS)
    def test_log_unchanged(self, name):
        golden = (DATA / f"{name}.txt").read_text()
        assert log_text(generate_log(name)) == golden

    def test_goldens_round_trip_byte_for_byte(self):
        """read() then write() must reproduce each golden exactly."""
        for name in GOLDEN_SCENARIOS:
            raw = (DATA / f"{name}.txt").read_text()
            parsed = EventLog.read(io.StringIO(raw))
            assert len(parsed) > 0
            assert log_text(parsed) == raw, name

    def test_goldens_differ_from_each_other(self):
        """Sanity: the runs really produce different logs."""
        texts = {(DATA / f"{n}.txt").read_text() for n in GOLDEN_SCENARIOS}
        assert len(texts) == len(GOLDEN_SCENARIOS)


def regenerate() -> None:  # pragma: no cover - manual tool
    """Rewrite the golden files from the current code."""
    for name in GOLDEN_SCENARIOS:
        path = DATA / f"{name}.txt"
        path.write_text(log_text(generate_log(name)))
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
