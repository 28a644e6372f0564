"""Terminal line charts for data series.

The paper's figures are log-x line plots; this renders the same shape in
a terminal so `repro report --plots` and the examples can show curves,
not just tables.  Pure string output, deterministic, no dependencies.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from .series import DataSeries

#: Per-series markers, cycled.
MARKERS = "o+x*#@%&"


def _transform(value: float, log: bool) -> float:
    if not log:
        return value
    if value <= 0:
        raise ConfigurationError("log axis requires positive values")
    return math.log10(value)


def ascii_plot(
    series_list: Sequence[DataSeries],
    width: int = 64,
    height: int = 18,
    log_x: bool = False,
    log_y: bool = False,
    title: Optional[str] = None,
) -> str:
    """Render series as an ASCII chart with a legend.

    Points are plotted at character resolution; values between points are
    linearly interpolated along x so curves read as lines.  Zero x values
    on a log axis are dropped (the ping-pong zero-byte point).
    """
    if not series_list:
        raise ConfigurationError("nothing to plot")
    if width < 16 or height < 4:
        raise ConfigurationError("plot area too small")

    # Collect transformed points per series.
    plotted: List[List[tuple]] = []
    for s in series_list:
        pts = []
        for x, y in zip(s.x, s.y):
            if log_x and x <= 0:
                continue
            if log_y and y <= 0:
                continue
            pts.append((_transform(x, log_x), _transform(y, log_y)))
        pts.sort()
        plotted.append(pts)
    all_pts = [p for pts in plotted for p in pts]
    if not all_pts:
        raise ConfigurationError("no plottable points")
    x_min = min(p[0] for p in all_pts)
    x_max = max(p[0] for p in all_pts)
    y_min = min(p[1] for p in all_pts)
    y_max = max(p[1] for p in all_pts)
    if x_max == x_min:
        x_max += 1.0
    if y_max == y_min:
        y_max += 1.0

    grid = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return min(width - 1, int((x - x_min) / (x_max - x_min) * (width - 1)))

    def to_row(y: float) -> int:
        frac = (y - y_min) / (y_max - y_min)
        return min(height - 1, int((1.0 - frac) * (height - 1)))

    for idx, pts in enumerate(plotted):
        marker = MARKERS[idx % len(MARKERS)]
        # Interpolate along columns between consecutive points.
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            c0, c1 = to_col(x0), to_col(x1)
            for c in range(c0, c1 + 1):
                if c1 == c0:
                    y = y1
                else:
                    t = (c - c0) / (c1 - c0)
                    y = y0 + t * (y1 - y0)
                grid[to_row(y)][c] = marker
        for x, y in pts:  # re-stamp true points over interpolation
            grid[to_row(y)][to_col(x)] = marker

    # Assemble with a y-axis gutter and x-axis line.
    def y_label(row: int) -> float:
        frac = 1.0 - row / (height - 1)
        v = y_min + frac * (y_max - y_min)
        return 10**v if log_y else v

    lines = []
    if title:
        lines.append(title)
    for r in range(height):
        label = f"{y_label(r):>10.4g} |" if r % 4 == 0 or r == height - 1 else " " * 10 + " |"
        lines.append(label + "".join(grid[r]))
    lines.append(" " * 10 + "-" * (width + 1))
    left = 10**x_min if log_x else x_min
    right = 10**x_max if log_x else x_max
    axis = f"{left:<12.4g}{'':^{max(0, width - 24)}}{right:>12.4g}"
    lines.append(" " * 11 + axis)
    x_name = series_list[0].x_name + (" (log)" if log_x else "")
    lines.append(" " * 11 + x_name.center(width))
    for idx, s in enumerate(series_list):
        lines.append(f"  {MARKERS[idx % len(MARKERS)]} {s.label}")
    return "\n".join(lines)
