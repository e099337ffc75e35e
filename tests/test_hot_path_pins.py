"""Pins on the per-event hot path.

* **Event counts.**  Six small runs execute exactly the events, push
  exactly the heap entries and leave exactly the cancelled entries
  they did before the engine's heap entries became event handles (the
  first three) or before the base station's schemes were wired
  straight into its forwarding path (SNOOP, SPLIT, QUENCH).  A
  hot-path rewrite that adds, drops or reorders an event changes one
  of these numbers even where the results happen to agree.
* **Benchmark hooks.**  ``perfbench/tracing.py`` instruments the
  package from outside: it replaces class and module attributes by
  name (``vars(owner)[name]``) and reads components' counters.  A
  rename on the hot path would break ``perfbench/run.py --trace 1``
  and nothing else, so the names it relies on are checked here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.config import lan_scenario, wan_scenario
from repro.experiments.topology import Scenario, Scheme

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: (events executed, heap pushes, cancelled entries left in the heap).
PINS = {
    "lan-ebsn-256k-bad1": (
        lambda: lan_scenario(
            scheme=Scheme.EBSN, bad_period_mean=1.0, transfer_bytes=256 * 1024
        ),
        (1767, 2125, 7),
    ),
    "wan-ebsn-1536B-20k": (
        lambda: wan_scenario(
            scheme=Scheme.EBSN, packet_size=1536, transfer_bytes=20 * 1024
        ),
        (784, 968, 6),
    ),
    "wan-basic-576B": (
        lambda: wan_scenario(scheme=Scheme.BASIC, packet_size=576),
        (2863, 2872, 1),
    ),
    # The schemes with an agent on the base station's forwarding path,
    # each at a size where that agent acts: snoop retransmits locally,
    # the relay closes its stream, quench sends quenches.
    "wan-snoop-576B-20k": (
        lambda: wan_scenario(
            scheme=Scheme.SNOOP, packet_size=576, transfer_bytes=20 * 1024
        ),
        (788, 809, 3),
    ),
    "wan-split-576B-20k": (
        lambda: wan_scenario(
            scheme=Scheme.SPLIT, packet_size=576, transfer_bytes=20 * 1024
        ),
        (628, 637, 1),
    ),
    "wan-quench-576B-20k": (
        lambda: wan_scenario(
            scheme=Scheme.QUENCH, packet_size=576, transfer_bytes=20 * 1024
        ),
        (1190, 1448, 7),
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_event_counts_are_pinned(name):
    make, expected = PINS[name]
    scenario = Scenario(make())
    assert scenario.run().completed
    sim = scenario.sim
    dead = sum(1 for entry in sim._heap if entry[2] is None)
    assert (sim.events_executed, sim.heap_pushes, dead) == expected
    assert sim._cancelled_count == dead


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_hook():
    tracing = _tracing()
    missing = []

    def check(owner, name, label):
        if name not in vars(owner):
            missing.append(label)

    for _, module, owner, attributes in tracing.ENTRY_POINTS:
        target = tracing._resolve(module, owner)
        for name in attributes:
            check(target, name, f"{owner or module}.{name}")
    simulator = tracing._resolve("repro.engine.simulator", "Simulator")
    for name in ("schedule", "schedule_at", "run"):
        check(simulator, name, f"Simulator.{name}")
    check(tracing._resolve("repro.engine.timer", "Timer"), "_fire", "Timer._fire")
    check(
        tracing._resolve("repro.metrics.eventlog", None),
        "attach_to_scenario",
        "eventlog.attach_to_scenario",
    )
    check(
        tracing._resolve("repro.validate.engine", "Validator"), "attach",
        "Validator.attach",
    )
    for _, module, owner in tracing.COUNTED:
        check(tracing._resolve(module, owner), "__init__", f"{owner}.__init__")
    assert missing == []


def test_benchmark_counter_reads_a_run():
    """The counter's reads of components' stats resolve on a real run."""
    tracing = _tracing()
    patches = tracing.Patches()
    counter = tracing.Counter()
    counter.install(patches)
    try:
        scenario = Scenario(
            lan_scenario(scheme=Scheme.EBSN, bad_period_mean=1.0, transfer_bytes=64 * 1024)
        )
        scenario.run()
    finally:
        patches.restore()
    (count,) = counter.units
    assert count["engine.events"] == scenario.sim.events_executed > 0
    assert count["engine.heap_pushes"] == scenario.sim.heap_pushes
    assert count["tcp.segments_sent"] == scenario.sender.stats.segments_sent
