"""Extension: handoff recovery schemes ([4]/[17] companion study).

The paper's §2 opens with Caceres & Iftode: after each cell crossing,
TCP waits out a retransmission timeout unless the fast-retransmit
procedure is invoked explicitly.  This benchmark sweeps the handoff
frequency for all four recovery schemes and reproduces that finding.
"""

from __future__ import annotations

import pytest

from repro.experiments.tables import HANDOFF_INTERVALS as INTERVALS
from repro.experiments.tables import handoff_means
from repro.handoff import HandoffScheme


@pytest.mark.table("handoff_schemes")
def test_handoff_recovery_schemes(results):
    results = {key: handoff_means(point) for key, point in results.items()}
    for interval in INTERVALS:
        base = results[(HandoffScheme.BASELINE, interval)]
        fast = results[(HandoffScheme.FAST_RTX, interval)]
        fwd = results[(HandoffScheme.FORWARD, interval)]

        # Fast retransmit removes the post-handoff timeout stalls ...
        assert fast["timeouts"] < 0.4 * max(base["timeouts"], 1.0)
        assert fast["tput_kbps"] > base["tput_kbps"]
        # ... and forwarding also helps by saving the stranded data.
        assert fwd["tput_kbps"] > base["tput_kbps"]

    # The damage scales with handoff frequency for the baseline.
    assert (
        results[(HandoffScheme.BASELINE, 4.0)]["tput_kbps"]
        < results[(HandoffScheme.BASELINE, 16.0)]["tput_kbps"]
    )
