"""Golden-file regression tests for the ns-style event logs.

Where ``test_golden_traces.py`` freezes the *rendered* Fig 3/5 traces,
these freeze the raw event logs of two seed-deterministic scenarios —
one EBSN WAN transfer and one LOCAL_RECOVERY LAN transfer — so drift
anywhere in the event pipeline (link send/receive ordering, corruption
decisions, fragment sizes, uids) shows up as a line diff.  The same
files pin the serializer: parsing a golden and re-writing it must
reproduce the bytes exactly.

Regenerate deliberately after an intended behavior change::

    PYTHONPATH=src python -m tests.test_golden_eventlogs

and record why in the commit message.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.experiments.config import lan_scenario, wan_scenario
from repro.experiments.topology import Scenario, Scheme
from repro.metrics.eventlog import EventLog, attach_to_scenario
from repro.net.packet import pinned_uids

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
}


def generate_log(name: str) -> EventLog:
    """Run the named golden scenario and return its event log.

    The process-wide datagram/frame uid counters are pinned to 1 for
    the run (uids are labels — behavior never reads them), so the
    logged lines are identical no matter how many packets earlier
    tests created.
    """
    with pinned_uids():
        scenario = Scenario(GOLDEN_SCENARIOS[name]())
        log = attach_to_scenario(scenario)
        result = scenario.run()
    assert result.completed, f"golden scenario {name} did not complete"
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

    def test_goldens_round_trip_byte_for_byte(self):
        """read() then write() must reproduce each golden exactly."""
        for name in GOLDEN_SCENARIOS:
            raw = (DATA / f"{name}.txt").read_text()
            parsed = EventLog.read(io.StringIO(raw))
            assert len(parsed) > 0
            assert log_text(parsed) == raw, name

    def test_goldens_differ_from_each_other(self):
        """Sanity: the two scenarios really produce different logs."""
        names = list(GOLDEN_SCENARIOS)
        texts = {n: (DATA / f"{n}.txt").read_text() for n in names}
        assert texts[names[0]] != texts[names[1]]


def regenerate() -> None:  # pragma: no cover - manual tool
    """Rewrite the golden files from the current code."""
    for name in GOLDEN_SCENARIOS:
        path = DATA / f"{name}.txt"
        path.write_text(log_text(generate_log(name)))
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
