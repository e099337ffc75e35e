"""Independent per-frame (uniform) loss — the non-bursty comparison.

The snoop paper evaluated against (mostly) independent losses; this
paper's critique is that real fades are bursty.  To reproduce *both*
sides, :class:`BernoulliLossChannel` corrupts each transmission
independently with a fixed probability, matched to a burst channel's
average loss rate via :func:`matched_loss_probability` — same mean
loss, none of the correlation.
"""

from __future__ import annotations

import math
import random

#: Frame length the match is computed for: a 128 B WAN frame after the
#: 1.5x framing overhead (bits).
FRAME_BITS = 1536


class BernoulliLossChannel:
    """Channel that corrupts each frame i.i.d. with probability ``p``."""

    def __init__(self, loss_probability: float, rng: random.Random) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        self.loss_probability = loss_probability
        self._rng = rng
        self.frames_tested = 0
        self.frames_corrupted = 0

    def corrupts(self, start: float, duration: float, nbits: int) -> bool:
        """Decide i.i.d. whether this transmission is lost."""
        self.frames_tested += 1
        corrupted = self._rng.random() < self.loss_probability
        if corrupted:
            self.frames_corrupted += 1
        return corrupted


def matched_loss_probability(
    good_period_mean: float,
    bad_period_mean: float,
    ber_good: float = 1e-6,
    ber_bad: float = 1e-2,
) -> float:
    """Per-frame loss probability matching a burst channel's average.

    Averages the per-state frame survival over the steady-state time
    split (ignoring boundary straddling — adequate when frames are
    much shorter than sojourns).

    >>> p = matched_loss_probability(10.0, 1.0)
    >>> 0.05 < p < 0.15   # ~9%: mostly the bad-state residence time
    True
    """
    if good_period_mean <= 0 or bad_period_mean <= 0:
        raise ValueError("period means must be positive")
    good_fraction = good_period_mean / (good_period_mean + bad_period_mean)
    survive_good = math.exp(FRAME_BITS * math.log1p(-ber_good))
    survive_bad = math.exp(FRAME_BITS * math.log1p(-ber_bad))
    survive = good_fraction * survive_good + (1.0 - good_fraction) * survive_bad
    return 1.0 - survive
