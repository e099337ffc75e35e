"""Application workloads beyond bulk transfer.

The paper motivates its schemes with interactive applications (telnet,
www) but evaluates bulk transfer only; this package measures the
*latency* those applications would see:

* :mod:`repro.workloads.interactive` — a telnet-style keystroke
  stream over the Fig-2 topology, reporting per-keystroke delivery
  latency distributions per recovery scheme.
"""

from repro.workloads.interactive import (
    InteractiveConfig,
    InteractiveResult,
    LatencyStats,
)

__all__ = [
    "InteractiveConfig",
    "InteractiveResult",
    "LatencyStats",
]
