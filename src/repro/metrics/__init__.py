"""Performance metrics and trace instrumentation.

The paper's two metrics (§1):

* **goodput** — useful data received at the destination over total
  data transmitted by the source (efficiency of network use);
* **throughput** — total data received by the end user over connection
  time (including the 40 B header per delivered packet, as in §5).

Plus the theoretical maxima of §5 and the "packet number mod 90 vs
time" trace plots of Figs 3–5.
"""

from repro.metrics.stats import ConnectionMetrics, compute_metrics
from repro.metrics.theoretical import theoretical_throughput_bps

__all__ = [
    "ConnectionMetrics",
    "compute_metrics",
    "theoretical_throughput_bps",
]

# PacketTrace/EventLog/EnergyModel load only where a run records them:
# import them from repro.metrics.trace / .eventlog / .energy.
