"""Congestion-window trace analysis.

``TahoeSender(record_cwnd=True)`` appends ``(time, cwnd)`` samples on
every window change.  These helpers quantify the dynamics the paper's
prose describes — how often the window collapses, how much capacity
the collapsed window forgoes — and render the sawtooth for terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

Sample = Tuple[float, float]

#: Rows of the rendered sawtooth.
HEIGHT = 12
#: Windows (segments) below this count as collapsed for
#: :attr:`CwndSummary.time_below_threshold`.
LOW_WINDOW = 2.0


@dataclass(frozen=True, slots=True)
class CwndSummary:
    """Aggregates over one connection's cwnd trace."""

    samples: int
    collapses: int
    mean_cwnd: float
    min_cwnd: float
    max_cwnd: float
    #: Fraction of connection time spent with cwnd strictly below
    #: ``threshold`` (computed by time-weighting the samples).
    time_below_threshold: float
    threshold: float


def summarize_cwnd(trace: Sequence[Sample], end_time: float) -> CwndSummary:
    """Time-weighted summary of a cwnd trace.

    ``end_time`` closes the final segment (normally the connection's
    completion time).  A *collapse* is any sample that drops the
    window to 1 (Tahoe's loss response).
    """
    if not trace:
        raise ValueError("empty cwnd trace")
    if end_time < trace[-1][0]:
        raise ValueError("end_time precedes the last sample")

    collapses = sum(1 for _, w in trace if w == 1.0)
    values = [w for _, w in trace]

    weighted = 0.0
    below = 0.0
    total = 0.0
    for (t0, w), (t1, _) in zip(trace, list(trace[1:]) + [(end_time, 0.0)]):
        span = t1 - t0
        if span < 0:
            raise ValueError("cwnd trace is not time-ordered")
        weighted += w * span
        total += span
        if w < LOW_WINDOW:
            below += span
    mean = weighted / total if total > 0 else values[0]
    return CwndSummary(
        samples=len(trace),
        collapses=collapses,
        mean_cwnd=mean,
        min_cwnd=min(values),
        max_cwnd=max(values),
        time_below_threshold=below / total if total > 0 else 0.0,
        threshold=LOW_WINDOW,
    )


def render_cwnd(
    trace: Sequence[Sample],
    end_time: float,
    width: int = 80,
) -> str:
    """ASCII sawtooth of the congestion window over time."""
    if not trace:
        return "\n(empty cwnd trace)\n"
    w_max = max(w for _, w in trace)
    w_max = max(w_max, 1.0)
    grid = [[" "] * width for _ in range(HEIGHT)]
    # Sample-and-hold: each column shows the window in force then.
    samples: List[Sample] = list(trace)
    index = 0
    for col in range(width):
        t = col / max(width - 1, 1) * end_time
        while index + 1 < len(samples) and samples[index + 1][0] <= t:
            index += 1
        w = samples[index][1]
        row = int((w / w_max) * (HEIGHT - 1))
        grid[HEIGHT - 1 - row][col] = "#"
    lines = [f"{w_max:6.1f} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("       |" + "".join(row))
    lines.append(f"{0.0:6.1f} +" + "".join(grid[-1]))
    lines.append("        " + "-" * width)
    lines.append(f"        0{'time (s)':^{max(width - 12, 0)}}{end_time:>10.1f}")
    return "\n".join(lines) + "\n"
