"""Figure 10: local-area wireless — throughput vs mean bad period.

10 Mbps wired / 2 Mbps wireless, no fragmentation, 1536 B packets,
64 KB window, 4 MB transfer, mean good period 4 s, bad period
0.4-1.6 s.  The paper's reading:

  * TCP with EBSN clearly outperforms basic TCP, up to ~50% at the
    long-fade end;
  * EBSN tracks the theoretical maximum closely;
  * the gap grows with bad-period length.
"""

from __future__ import annotations

import pytest

from conftest import SCALE, STRICT

from repro.experiments.config import LAN_BAD_PERIODS
from repro.experiments.figures import lan_theoretical_mbps
from repro.experiments.topology import Scheme


@pytest.mark.table("fig10_lan_tput")
def test_fig10_lan_throughput(results):
    if not STRICT:
        # Smoke scale: the table is run and rendered, but the
        # paper-shape margins only hold at full scale.
        return

    def tput(scheme, bad):
        return results["lan", scheme, bad].throughput_mbps

    basic = {b: tput(Scheme.BASIC, b) for b in LAN_BAD_PERIODS}
    ebsn = {b: tput(Scheme.EBSN, b) for b in LAN_BAD_PERIODS}

    for bad in LAN_BAD_PERIODS:
        # EBSN wins everywhere and never exceeds the theoretical max.
        assert ebsn[bad] > basic[bad]
        assert ebsn[bad] <= lan_theoretical_mbps(bad) * 1.02
        # EBSN tracks the theoretical maximum closely.
        assert ebsn[bad] > 0.85 * lan_theoretical_mbps(bad)

    # The improvement grows with bad-period length and reaches tens of
    # percent at the long end (paper: up to ~50%).  Margins relax at
    # reduced smoke scale, where a short transfer sees few fades.
    gain_short = ebsn[LAN_BAD_PERIODS[0]] / basic[LAN_BAD_PERIODS[0]]
    gain_long = ebsn[LAN_BAD_PERIODS[-1]] / basic[LAN_BAD_PERIODS[-1]]
    if SCALE >= 0.8:
        assert gain_long > gain_short
        assert gain_long > 1.25
    else:
        assert gain_long > 1.02

    # Throughput falls with longer fades for both schemes.
    assert basic[1.6] < basic[0.4]
    assert ebsn[1.6] < ebsn[0.4]
