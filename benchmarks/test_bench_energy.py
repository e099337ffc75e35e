"""Extension: mobile-host energy per scheme.

Battery life was the other scarce resource of 1990s mobile computing.
This ablation measures the mobile host's radio energy per delivered
kilobyte under each recovery scheme (WaveLAN-class power model):
redundant end-to-end retransmissions cost the MH receive energy, the
longer connection costs idle-listening energy, and local recovery +
EBSN should therefore be the cheapest way to move a byte.
"""

from __future__ import annotations

import pytest

from conftest import STRICT

from repro.experiments.tables import energy_means
from repro.experiments.topology import Scheme


@pytest.mark.table("energy_per_scheme")
def test_energy_per_scheme(results):
    if not STRICT:
        # Smoke scale: the table is regenerated and saved, but the
        # paper-shape margins only hold at full scale.
        return

    basic = energy_means(results[Scheme.BASIC])
    ebsn = energy_means(results[Scheme.EBSN])
    # EBSN moves a byte for noticeably less energy than basic TCP.
    assert ebsn["joules_per_kb"] < 0.85 * basic["joules_per_kb"]
    # ... mostly because the whole connection is shorter.
    assert ebsn["duration"] < basic["duration"]
