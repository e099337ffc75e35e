"""Terminal line charts for experiment output.

A tiny dependency-free plotter used by the examples and the benchmark
harness to show the reproduced figures next to their numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

_MARKERS = "ox+*#@%&"


def plot_series(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 64,
    height: int = 18,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    y_min: Optional[float] = None,
) -> str:
    """Render named (x, y) series as an ASCII chart.

    >>> out = plot_series({"a": [(0, 0), (1, 1)]}, width=20, height=5)
    >>> "a" in out
    True
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)\n"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = y_min if y_min is not None else min(ys)
    y_hi = max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, pts) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in pts:
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:>10.3g} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y_lo:>10.3g} +" + "".join(grid[-1]))
    lines.append(" " * 12 + "-" * width)
    lines.append(f"{'':12}{x_lo:<12.4g}{x_label:^{max(width - 24, 0)}}{x_hi:>12.4g}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label}" for i, label in enumerate(series)
    )
    lines.append(f"  legend: {legend}")
    if y_label:
        lines.append(f"  y: {y_label}")
    return "\n".join(lines) + "\n"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """A fixed-width text table for benchmark output."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines) + "\n"
