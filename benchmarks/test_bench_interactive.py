"""Extension: interactive (telnet-style) latency per recovery scheme.

The paper motivates its work with interactive applications but
measures bulk transfer.  This benchmark types keystrokes across the
fading WAN path and reports per-keystroke delivery latency.

Two findings:

* EBSN cuts mean latency and spurious timeouts, but the latency *tail*
  is fade-bound — no recovery scheme delivers a keystroke through a
  deep fade, it can only avoid adding timer backoff on top.
* Interactive RTTs are tiny, so the source's RTO sits at the clock-
  granularity floor — *below* the ARQ retry cycle — and the paper's
  per-attempt EBSNs arrive too sparsely to stop every timeout (the
  small-RTT sensitivity of §4.2.4).  The EBSN *heartbeat* extension
  (keep notifying between attempts) closes that gap.
"""

from __future__ import annotations

import pytest

from conftest import STRICT

from repro.experiments.tables import interactive_means


@pytest.mark.table("interactive_latency")
def test_interactive_latency(results):
    if not STRICT:
        # Smoke scale: the table is run and rendered, but the
        # paper-shape margins only hold at full scale.
        return

    results = {label: interactive_means(point) for label, point in results.items()}
    basic = results["basic"]
    ebsn = results["EBSN"]
    heartbeat = results["EBSN + heartbeat"]

    # EBSN improves the feel of the session ...
    assert ebsn["mean"] < basic["mean"]
    assert ebsn["timeouts"] < 0.7 * basic["timeouts"]
    # ... and the heartbeat extension removes the residual timeouts
    # that the sparse per-attempt EBSN stream cannot (small-RTT RTOs).
    assert heartbeat["timeouts"] < 0.5 * ebsn["timeouts"]
    assert heartbeat["mean"] <= ebsn["mean"] * 1.05
