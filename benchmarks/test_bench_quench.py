"""§4.2.2: why ICMP source quench does not work (no figure in paper).

The paper traced quench and concluded: "A source quench message from
the base station ... will not be able to prevent timeouts of packets
that are already on the network."  This benchmark reproduces that
comparison: basic vs quench vs EBSN on the WAN configuration.
"""

from __future__ import annotations

import pytest

from repro.experiments.topology import Scheme


@pytest.mark.table("quench_negative")
def test_quench_negative_result(results):
    basic = results[Scheme.BASIC]
    quench = results[Scheme.QUENCH]
    ebsn = results[Scheme.EBSN]

    # Quench does NOT eliminate timeouts (the paper's point) ...
    assert quench.timeouts_mean > 2.0
    # ... while EBSN all but does (residual timeouts are genuine-loss
    # recoveries after ARQ discards, not spurious ones).
    assert ebsn.timeouts_mean < 1.5
    assert ebsn.timeouts_mean < 0.25 * quench.timeouts_mean
    # EBSN delivers the throughput win over basic TCP; quench cannot.
    assert ebsn.throughput_bps_mean >= 0.95 * quench.throughput_bps_mean
    assert ebsn.throughput_bps_mean > 1.1 * basic.throughput_bps_mean
