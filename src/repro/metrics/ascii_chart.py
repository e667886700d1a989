"""Plain-text tables and charts for terminal output.

:func:`format_table` renders result rows: every command's table and
every section of the ``omega-sim trace`` report. The paper's results
are figures; the ``omega-sim`` CLI can render the reproduced series
directly in the terminal with ``--plot``. Charts are deliberately
dependency-free (no matplotlib in this offline environment): a
character grid with per-series glyphs, linear or log10 axes, and a
compact legend.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

#: Per-series plot glyphs, assigned in insertion order.
GLYPHS = "*+ox#@%&"

Point = tuple[float, float]


def _transform(value: float, log: bool) -> float | None:
    if log:
        if value <= 0:
            return None
        return math.log10(value)
    return value


def line_chart(
    series: Mapping[str, Sequence[Point]],
    width: int = 64,
    height: int = 16,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render named point series on one character grid.

    Points with non-positive coordinates on a log axis are dropped.
    Overlapping points from different series show the later series'
    glyph. Returns a multi-line string ready to print.
    """
    if width < 8 or height < 4:
        raise ValueError("chart must be at least 8x4 characters")
    if not series:
        raise ValueError("need at least one series")

    transformed: dict[str, list[Point]] = {}
    for label, points in series.items():
        kept = []
        for x, y in points:
            tx = _transform(x, log_x)
            ty = _transform(y, log_y)
            if tx is not None and ty is not None:
                kept.append((tx, ty))
        transformed[label] = kept
    all_points = [p for points in transformed.values() for p in points]
    if not all_points:
        raise ValueError("no plottable points (log axes drop values <= 0)")

    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, points) in enumerate(transformed.items()):
        glyph = GLYPHS[index % len(GLYPHS)]
        for x, y in points:
            column = round((x - x_min) / (x_max - x_min) * (width - 1))
            row = round((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][column] = glyph

    def axis_value(value: float, log: bool) -> str:
        shown = 10**value if log else value
        return f"{shown:.3g}"

    lines = []
    if title:
        lines.append(title)
    top_label = axis_value(y_max, log_y)
    bottom_label = axis_value(y_min, log_y)
    gutter = max(len(top_label), len(bottom_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(gutter)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * gutter + "+" + "-" * width)
    left = axis_value(x_min, log_x)
    right = axis_value(x_max, log_x)
    middle = x_label + (" [log10]" if log_x and x_label else "")
    pad = max(1, width - len(left) - len(right) - len(middle))
    lines.append(
        " " * (gutter + 1) + left + " " * (pad // 2) + middle
        + " " * (pad - pad // 2) + right
    )
    legend = "   ".join(
        f"{GLYPHS[i % len(GLYPHS)]} {label}" for i, label in enumerate(series)
    )
    suffix = f"   (y: {y_label}{', log10' if log_y else ''})" if y_label else ""
    lines.append("  legend: " + legend + suffix)
    return "\n".join(lines)


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render result rows as a fixed-width text table.

    This is how every benchmark prints "the same rows/series the paper
    reports"; floats are rendered with four significant digits.
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in table
    ]
    return "\n".join([header, separator, *body])
