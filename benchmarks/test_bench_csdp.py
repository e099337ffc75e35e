"""§2 / [9]: link-level scheduling for multiple connections.

The paper summarizes Bhagwat et al.: with several TCP connections
sharing the base station's radio, FIFO scheduling suffers head-of-line
blocking when one destination fades, and "scheduling protocols such as
round-robin provide significant performance improvement over FIFO";
CSDP's further gain "depends mostly on the accuracy of the channel
state predictor", and "the problem of source timeouts exists in this
approach too".
"""

from __future__ import annotations

import pytest

from repro.experiments.tables import CSDP_SCHEDULERS as SCHEDULERS
from repro.experiments.tables import csdp_means


@pytest.mark.table("csdp_scheduling")
def test_csdp_scheduling(results):
    results = {sched: csdp_means(point) for sched, point in results.items()}
    fifo, rr, csdp = (results[s] for s in SCHEDULERS)
    # Round-robin significantly outperforms FIFO ([9] via §2).
    assert rr["agg_kbps"] > 1.15 * fifo["agg_kbps"]
    # The gain comes from eliminating head-of-line blocking.
    assert fifo["blocked_s"] > 5 * rr["blocked_s"]
    # CSDP is at least as good as round-robin.
    assert csdp["agg_kbps"] > 0.95 * rr["agg_kbps"]
    # Source timeouts persist under every scheduling policy.
    for sched in SCHEDULERS:
        assert results[sched]["timeouts"] > 0
