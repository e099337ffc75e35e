"""Two-state (good/bad) burst-error channel.

The channel alternates between a good and a bad state.  Sojourn
lengths come from a :class:`SojournSource` — exponential draws for the
Markov model of the paper's §3.1, constants for the deterministic
traces of §4.2.1.  Bit errors within each state occur at that state's
BER.

A frame transmission occupies an interval ``[start, start + duration]``
of channel time; its bits are exposed uniformly over that interval, so
a transmission that straddles a good→bad transition has part of its
bits at the good BER and part at the bad BER.  Corruption is then:

* **stochastic** — survive with probability
  ``(1-ber_good)^bits_good · (1-ber_bad)^bits_bad``;
* **deterministic** — corrupt iff the expected number of bit errors
  ``bits_good·ber_good + bits_bad·ber_bad`` reaches 1.  With the
  paper's parameters this reduces to "frames overlapping a bad period
  are lost, frames entirely in a good period survive", which is
  exactly the behaviour in Figs 3–5.
"""

from __future__ import annotations

import enum
import math
import random
from bisect import bisect_right
from typing import Iterator, List, Optional, Protocol, Tuple

# Local alias: a plain global lookup is cheaper than module-attribute
# access on the per-frame corrupts() path.  Same C function, same bits.
_exp = math.exp


class ChannelState(enum.Enum):
    """The two Markov states of the burst-error model."""

    GOOD = "good"
    BAD = "bad"


class SojournSource(Protocol):
    """Produces the next sojourn duration for a given state."""

    def next_sojourn(self, state: ChannelState) -> float:
        """Duration (seconds) the channel stays in ``state``."""
        ...  # pragma: no cover - protocol


class ExponentialSojourns:
    """Exponentially distributed sojourns (the Markov model).

    ``good_mean`` and ``bad_mean`` are the mean state-holding times in
    seconds, i.e. the reciprocals of the paper's transition rates
    (good_mean = 1/lambda_gb, bad_mean = 1/lambda_bg).
    """

    def __init__(self, good_mean: float, bad_mean: float, rng: random.Random) -> None:
        if good_mean <= 0 or bad_mean <= 0:
            raise ValueError("sojourn means must be positive")
        self.good_mean = good_mean
        self.bad_mean = bad_mean
        self._rng = rng

    def next_sojourn(self, state: ChannelState) -> float:
        """Draw an exponential holding time for ``state``."""
        mean = self.good_mean if state is ChannelState.GOOD else self.bad_mean
        return self._rng.expovariate(1.0 / mean)


class DeterministicSojourns:
    """Constant sojourns (the frozen model of the paper's example)."""

    def __init__(self, good_len: float, bad_len: float) -> None:
        if good_len <= 0 or bad_len <= 0:
            raise ValueError("sojourn lengths must be positive")
        self.good_len = good_len
        self.bad_len = bad_len

    def next_sojourn(self, state: ChannelState) -> float:
        """The fixed holding time for ``state``."""
        return self.good_len if state is ChannelState.GOOD else self.bad_len


class TwoStateChannel:
    """Good/bad channel with lazily materialized state history.

    The state timeline is generated on demand and kept as a sorted list
    of transition times, so queries may look back at intervals that
    began before the most recent query (a long frame's airtime starts
    in the past relative to its completion event).

    The whole history is kept: every run stops at ``MAX_SIM_TIME``,
    which bounds the timeline at about ``2 * MAX_SIM_TIME / (good_mean
    + bad_mean)`` sojourns.
    """

    def __init__(
        self,
        sojourns: SojournSource,
        ber_good: float,
        ber_bad: float,
        rng: Optional[random.Random] = None,
        deterministic_errors: bool = False,
        initial_state: ChannelState = ChannelState.GOOD,
    ) -> None:
        if not 0.0 <= ber_good <= 1.0 or not 0.0 <= ber_bad <= 1.0:
            raise ValueError("bit error rates must be in [0, 1]")
        if rng is None and not deterministic_errors:
            raise ValueError("stochastic error mode requires an rng")
        self._sojourns = sojourns
        self.ber_good = ber_good
        self.ber_bad = ber_bad
        self._rng = rng
        self.deterministic_errors = deterministic_errors
        # _boundaries[i] is the start time of the i-th sojourn;
        # _states[i] its state.  _horizon is the end of the last
        # materialized sojourn.
        self._boundaries: List[float] = [0.0]
        self._states: List[ChannelState] = [initial_state]
        self._horizon: float = 0.0 + sojourns.next_sojourn(initial_state)
        self.frames_tested = 0
        self.frames_corrupted = 0
        # Constant per-bit log-survival terms; math.log1p on the same
        # inputs is deterministic, so hoisting it out of
        # survival_probability changes no result bit.
        self._log1p_good = math.log1p(-ber_good)
        self._log1p_bad = math.log1p(-ber_bad)
        # O(1) fast-path cache: bounds and state of one materialized
        # sojourn (typically the one the previous frame ended in).  A
        # query interval that falls inside it needs no bisect and no
        # timeline extension.  ``_fast_hi < _fast_lo`` encodes "empty".
        self._fast_lo: float = 0.0
        self._fast_hi: float = -1.0
        self._fast_good: bool = True
        self.fast_path_hits = 0
        self.fast_path_misses = 0
        # Prebound RNG draw: _rng is only ever assigned here, so the
        # bound method cannot go stale, and corrupts() skips two
        # attribute lookups per frame.
        self._random = rng.random if rng is not None else None

    def _extend_to(self, time: float) -> None:
        """Materialize sojourns until the timeline covers ``time``."""
        while self._horizon <= time:
            last_state = self._states[-1]
            next_state = (
                ChannelState.BAD if last_state is ChannelState.GOOD else ChannelState.GOOD
            )
            self._boundaries.append(self._horizon)
            self._states.append(next_state)
            self._horizon += self._sojourns.next_sojourn(next_state)

    def state_at(self, time: float) -> ChannelState:
        """Channel state at absolute ``time`` (>= 0)."""
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        self._extend_to(time)
        boundaries = self._boundaries
        index = bisect_right(boundaries, time) - 1
        state = self._states[index]
        # Remember this sojourn for the exposure() fast path.
        self._fast_lo = boundaries[index]
        self._fast_hi = (
            boundaries[index + 1] if index + 1 < len(boundaries) else self._horizon
        )
        self._fast_good = state is ChannelState.GOOD
        return state

    def intervals(self, start: float, end: float) -> Iterator[Tuple[float, float, ChannelState]]:
        """Yield ``(seg_start, seg_end, state)`` covering ``[start, end]``."""
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if end < start:
            raise ValueError(f"end {end} before start {start}")
        self._extend_to(end)
        index = bisect_right(self._boundaries, start) - 1
        if start == end:
            yield start, end, self._states[index]
            return
        cursor = start
        while cursor < end:
            seg_end = (
                self._boundaries[index + 1]
                if index + 1 < len(self._boundaries)
                else self._horizon
            )
            seg_end = min(seg_end, end)
            yield cursor, seg_end, self._states[index]
            cursor = seg_end
            index += 1

    def exposure(self, start: float, duration: float, nbits: int) -> Tuple[float, float]:
        """Split ``nbits`` into (bits_in_good, bits_in_bad) over the interval.

        Bits are spread uniformly over the transmission time.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        end = start + duration
        # O(1) fast path: the whole interval lies inside the cached
        # sojourn.  The guard is exact — ``start < hi`` because the
        # sojourn is half-open at its end, and ``end == hi`` only
        # counts when ``hi`` is an interior boundary: a frame ending
        # exactly at the materialized horizon must fall through so the
        # slow path's _extend_to(end) draws the next sojourn, keeping
        # RNG consumption identical to the unoptimised walk.
        hi = self._fast_hi
        if (
            self._fast_lo <= start < hi
            and end <= hi
            and (end != hi or hi != self._horizon)
        ):
            self.fast_path_hits += 1
            if end <= start or nbits == 0:
                share = float(nbits)
            else:
                # Same float expression the segment walk evaluates for
                # a single full-width segment: nbits * span / span, not
                # float(nbits) — the round trip is not always exact.
                span = end - start
                share = nbits * span / span
            return (share, 0.0) if self._fast_good else (0.0, share)
        self.fast_path_misses += 1
        if end <= start or nbits == 0:
            # Zero (or floating-point-negligible) airtime: all bits see
            # the state at the start instant.
            state = self.state_at(start)
            return (float(nbits), 0.0) if state is ChannelState.GOOD else (0.0, float(nbits))
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self._extend_to(end)
        boundaries = self._boundaries
        states = self._states
        n = len(boundaries)
        index = bisect_right(boundaries, start) - 1
        bits_good = 0.0
        bits_bad = 0.0
        # Normalize by the float width of [start, end], not the nominal
        # duration: at large offsets ``end - start`` rounds to a
        # different value than ``duration`` (an ulp of slack), and the
        # segments below tile exactly [start, end].  Dividing by the
        # tiled width is what conserves nbits.
        span = end - start
        cursor = start
        while cursor < end:
            seg_end = boundaries[index + 1] if index + 1 < n else self._horizon
            if seg_end > end:
                seg_end = end
            share = nbits * (seg_end - cursor) / span
            if states[index] is ChannelState.GOOD:
                bits_good += share
            else:
                bits_bad += share
            cursor = seg_end
            index += 1
        # Cache the sojourn the interval ended in: back-to-back frames
        # usually land in the same one.
        last = index - 1
        self._fast_lo = boundaries[last]
        self._fast_hi = boundaries[last + 1] if last + 1 < n else self._horizon
        self._fast_good = states[last] is ChannelState.GOOD
        return bits_good, bits_bad

    def survival_probability(self, start: float, duration: float, nbits: int) -> float:
        """Probability all ``nbits`` cross uncorrupted."""
        bits_good, bits_bad = self.exposure(start, duration, nbits)
        # _log1p_good/_log1p_bad are the log1p(-ber) values hoisted to
        # __init__; same inputs, same bits.
        return math.exp(bits_good * self._log1p_good + bits_bad * self._log1p_bad)

    def corrupts(self, start: float, duration: float, nbits: int) -> bool:
        """Decide whether a frame transmitted over the interval is lost."""
        self.frames_tested += 1
        bits_good, bits_bad = self.exposure(start, duration, nbits)
        if self.deterministic_errors:
            expected_errors = bits_good * self.ber_good + bits_bad * self.ber_bad
            corrupted = expected_errors >= 1.0
        else:
            assert self._random is not None
            corrupted = self._random() >= _exp(
                bits_good * self._log1p_good + bits_bad * self._log1p_bad
            )
        if corrupted:
            self.frames_corrupted += 1
        return corrupted


def markov_channel(
    good_mean: float,
    bad_mean: float,
    rng: random.Random,
    ber_good: float = 1e-6,
    ber_bad: float = 1e-2,
    sojourn_rng: Optional[random.Random] = None,
) -> TwoStateChannel:
    """The paper's stochastic burst-error channel (§3.1 defaults).

    Pass a separate ``sojourn_rng`` to decouple the fade timeline from
    per-frame corruption draws: with a fixed sojourn stream, every
    experiment sharing a seed sees the *same* good/bad timeline
    regardless of how many frames it transmits, which makes packet-size
    sweeps paired comparisons (far lower variance, the spirit of the
    paper's frozen-error example).

    The initial state is drawn from the chain's stationary
    distribution; because sojourns are exponential (memoryless), the
    process is then stationary from t=0 and short transfers are not
    biased toward the good state.  (The paper's frozen example starts
    in the good state: see :func:`deterministic_channel`.)
    """
    state_rng = sojourn_rng or rng
    initial = ChannelState.GOOD
    if state_rng.random() >= good_mean / (good_mean + bad_mean):
        initial = ChannelState.BAD
    sojourns = ExponentialSojourns(good_mean, bad_mean, state_rng)
    return TwoStateChannel(
        sojourns, ber_good, ber_bad, rng=rng, initial_state=initial
    )


def deterministic_channel(
    good_len: float,
    bad_len: float,
    ber_good: float = 1e-6,
    ber_bad: float = 1e-2,
) -> TwoStateChannel:
    """The frozen channel used for the paper's trace example (§4.2.1)."""
    sojourns = DeterministicSojourns(good_len, bad_len)
    return TwoStateChannel(sojourns, ber_good, ber_bad, deterministic_errors=True)
