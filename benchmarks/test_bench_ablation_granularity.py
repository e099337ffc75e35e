"""Ablation: TCP clock granularity vs local-recovery timeouts.

The paper (§4.2.1, §6) argues that earlier local-recovery proposals
only avoid redundant source retransmissions because they assume a
coarse TCP timer (300-500 ms), while the trend is toward finer timers;
with a 100 ms clock the source times out during local recovery, and
EBSN makes performance insensitive to granularity.  This ablation
sweeps the clock granularity for LOCAL_RECOVERY and EBSN on the LAN
configuration (small RTTs are where granularity bites).
"""

from __future__ import annotations

import pytest

from repro.experiments.tables import CLOCK_GRANULARITIES as GRANULARITIES
from repro.experiments.topology import Scheme


@pytest.mark.table("ablation_granularity")
def test_granularity_sensitivity(results):
    lr = {g: results[(Scheme.LOCAL_RECOVERY, g)] for g in GRANULARITIES}
    eb = {g: results[(Scheme.EBSN, g)] for g in GRANULARITIES}

    # Fine timers hurt plain local recovery: more timeouts at 100 ms
    # than at 500 ms.
    assert lr[0.1].timeouts_mean >= lr[0.5].timeouts_mean

    # EBSN removes the sensitivity: (almost) no timeouts at any
    # granularity, and throughput roughly flat.
    for g in GRANULARITIES:
        assert eb[g].timeouts_mean <= 0.5
    tputs = [eb[g].throughput_bps_mean for g in GRANULARITIES]
    assert max(tputs) / min(tputs) < 1.15
