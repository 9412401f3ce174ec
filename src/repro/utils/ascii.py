"""Plain-text rendering of tables and charts for bench/example output.

The benchmark harness regenerates the paper's figures as *series of
numbers*; these helpers render them as aligned tables, horizontal bar
charts and coarse line charts so the shape of each figure is visible in a
terminal without matplotlib (which is not installed in this environment).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["format_table", "bar_chart", "line_chart", "proximity_map_art"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    float_fmt: str = "{:.3f}",
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width text table.

    Floats are formatted with ``float_fmt``; everything else with ``str``.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers: {row}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def bar_chart(
    labels: Sequence[object],
    values: Sequence[float],
    *,
    width: int = 50,
    title: str | None = None,
) -> str:
    """Render a horizontal bar chart (one row per label, values to 3 decimals)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    vmax = max((v for v in values if math.isfinite(v)), default=0.0)
    scale = (width / vmax) if vmax > 0 else 0.0
    label_w = max((len(str(lab)) for lab in labels), default=0)
    out = []
    if title:
        out.append(title)
    for lab, val in zip(labels, values):
        n = int(round(val * scale)) if math.isfinite(val) else 0
        out.append(
            f"{str(lab).rjust(label_w)} | {'#' * n:<{width}} {val:.3f}"
        )
    return "\n".join(out)


def line_chart(
    x: Sequence[float],
    y: Sequence[float],
    *,
    height: int = 12,
    width: int = 60,
    title: str | None = None,
) -> str:
    """Render a coarse character line chart of ``y`` against ``x``.

    Points are binned into a ``width x height`` character raster; the
    y-axis is annotated with min/max. Good enough to eyeball the U-shape
    of Fig. 8 or the knee of Fig. 7.
    """
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    finite = [(a, b) for a, b in zip(x, y) if math.isfinite(a) and math.isfinite(b)]
    if not finite:
        return title or "(no finite data)"
    xs = [a for a, _ in finite]
    ys = [b for _, b in finite]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    raster = [[" "] * width for _ in range(height)]
    for a, b in finite:
        col = min(width - 1, int((a - xmin) / xspan * (width - 1)))
        row = min(height - 1, int((b - ymin) / yspan * (height - 1)))
        raster[height - 1 - row][col] = "*"
    out = []
    if title:
        out.append(title)
    out.append(f"y_max={ymax:.3f}")
    out.extend("|" + "".join(r) for r in raster)
    out.append("+" + "-" * width)
    out.append(f"y_min={ymin:.3f}   x: {xmin:.3f} .. {xmax:.3f}")
    return "\n".join(out)


def proximity_map_art(mask, *, on: str = "#", off: str = ".") -> str:
    """Render a boolean 2-D mask (a proximity map) as character art.

    Row 0 of the mask is the *bottom* of the picture (y increases upward),
    matching the geometric convention of the virtual grid.
    """
    rows = [
        "".join(on if bool(v) else off for v in row)
        for row in reversed(list(mask))
    ]
    return "\n".join(rows)
