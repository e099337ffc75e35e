"""repro — reproduction of "Improving Performance of TCP over Wireless
Networks" (Bakshi, Krishna, Vaidya, Pradhan; ICDCS 1997).

A pure-Python discrete-event network simulator plus the paper's
mechanisms:

* TCP Tahoe over a wired+wireless path with a two-state burst-error
  channel;
* link-layer local recovery (stop-and-wait ARQ with RTmax discard) at
  the base station;
* **EBSN** — Explicit Bad State Notification — the paper's
  contribution: the base station re-arms the source's retransmission
  timer during local recovery, eliminating spurious timeouts;
* packet-size optimization for fragmented wireless paths;
* baselines: ICMP source quench, snoop-style agent.

Quickstart::

    from repro import Scheme, run_scenario, wan_scenario

    result = run_scenario(wan_scenario(scheme=Scheme.EBSN, packet_size=1536,
                                       bad_period_mean=4.0))
    print(result.metrics.throughput_kbps, "kbps,",
          result.metrics.goodput * 100, "% goodput")
"""

import importlib

from repro.experiments.config import (
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.topology import (
    ChannelConfig,
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    Scheme,
    run_scenario,
)
from repro.metrics import ConnectionMetrics, theoretical_throughput_bps
from repro.tcp import TahoeSender, TcpConfig, TcpSink

#: Names a plain run does not need, and the modules that define them;
#: each module loads on the first access (PEP 562).
_DEFINED_IN = {
    "PacketTrace": "repro.metrics.trace",
    "RenoSender": "repro.tcp.reno",
    "ReplicatedResult": "repro.experiments.runner",
    "run_replicated": "repro.experiments.runner",
    "sweep": "repro.experiments.runner",
}


def __getattr__(name: str):
    """Resolve a name of :data:`_DEFINED_IN` from its defining module."""
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_DEFINED_IN[name]), name)


__version__ = "1.0.0"

__all__ = [
    "ChannelConfig",
    "ConnectionMetrics",
    "PacketTrace",
    "RenoSender",
    "ReplicatedResult",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "Scheme",
    "TahoeSender",
    "TcpConfig",
    "TcpSink",
    "lan_scenario",
    "run_replicated",
    "run_scenario",
    "sweep",
    "theoretical_throughput_bps",
    "trace_example_scenario",
    "wan_scenario",
    "__version__",
]
