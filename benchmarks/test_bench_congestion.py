"""§6 extension: wired congestion and the ECN/EBSN interaction.

The paper defers to follow-up work "the impact of congestion in the
wired network on the effectiveness of EBSN" and "the interaction
between ECN and EBSN".  This benchmark runs that experiment: a CBR
cross-traffic source loads the wired bottleneck to 90% while the
wireless hop fades as usual, for every combination of
{basic, EBSN} × {ECN off, ECN on}.

Expected interaction (and what the assertions pin):

* congestion produces real drops; ECN marking removes most of the
  TCP-visible ones (the CBR source ignores ECN, so its drops remain);
* EBSN keeps its advantage under congestion — wireless stalls and
  congestion are separate pathologies;
* EBSN does not mask congestion: with EBSN active the source still
  executes normal congestion recovery for wired losses;
* the combination (EBSN + ECN) has the fewest loss events overall.
"""

from __future__ import annotations

import pytest

from repro.experiments.tables import congestion_means
from repro.experiments.topology import Scheme


@pytest.mark.table("congestion_ecn_ebsn")
def test_congestion_ecn_ebsn_interaction(results):
    results = {key: congestion_means(point) for key, point in results.items()}
    basic = results[(Scheme.BASIC, False)]
    basic_ecn = results[(Scheme.BASIC, True)]
    ebsn = results[(Scheme.EBSN, False)]
    ebsn_ecn = results[(Scheme.EBSN, True)]

    # Congestion is real, and ECN marking absorbs most drops.
    assert basic["drops"] > 5
    assert basic_ecn["drops"] < 0.6 * basic["drops"]
    assert basic_ecn["marks"] > 0 and basic_ecn["responses"] > 0

    # EBSN keeps its advantage under wired congestion.
    assert ebsn["tput_kbps"] > 1.1 * basic["tput_kbps"]
    # ... while still letting congestion control operate (no masking).
    assert ebsn["fastrtx"] + ebsn["timeouts"] > 0

    # The combination suppresses both pathologies: fewer timeouts than
    # basic, fewer fast retransmits than no-ECN.
    assert ebsn_ecn["timeouts"] < 0.5 * basic["timeouts"]
    assert ebsn_ecn["fastrtx"] <= ebsn["fastrtx"]
