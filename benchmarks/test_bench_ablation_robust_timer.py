"""§6 extension: a robust source timer *without* explicit feedback.

The paper closes: "We are also investigating schemes to make a source
timer more robust to larger delays on the wireless link without using
explicit feedback mechanisms.  If this is possible, we will be able to
achieve performance improvements comparable to those using EBSN
without changing TCP code at the end hosts."

This ablation tries the two obvious knobs on the standard estimator —
a larger variance weight (k = 8 instead of Jacobson's 4) and
"peak-hold" variance (slow decay after a delay spike) — under plain
local recovery, and compares against EBSN.
"""

from __future__ import annotations

import pytest


@pytest.mark.table("ablation_robust_timer")
def test_robust_timer_vs_ebsn(results):
    jacobson = results["jacobson k=4"]
    k8 = results["robust k=8"]
    hold = results["robust k=8 + peak-hold"]
    ebsn = results["EBSN (k=4)"]

    # Each robustness knob removes more spurious timeouts.
    assert k8.timeouts_mean <= jacobson.timeouts_mean
    assert hold.timeouts_mean <= k8.timeouts_mean
    # And buys real throughput...
    assert hold.throughput_bps_mean >= jacobson.throughput_bps_mean
    # ...but does not quite reach EBSN, which needs no guesswork about
    # how long the delay spike will last.
    assert ebsn.throughput_bps_mean >= 0.99 * hold.throughput_bps_mean
    assert ebsn.timeouts_mean <= hold.timeouts_mean
