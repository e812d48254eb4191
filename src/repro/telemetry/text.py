"""Plain-text rendering for experiment output: tables, series, charts.

Every experiment prints the regenerated rows/series of its paper figure
with these helpers, so ``repro-vod all`` reads like the paper's
evaluation section; the paper's figures are simple time-series plots,
and rendering them as text keeps the reproduction dependency-free while
making ``repro-vod figure4`` output look like the evaluation section
instead of a number dump.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.series import TimeSeries

Point = Tuple[float, float]


class Table:
    """A minimal fixed-width text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def render_chart(
    series: Sequence[Point],
    title: str = "",
    width: int = 64,
    height: int = 12,
    markers: Optional[Iterable[Tuple[float, str]]] = None,
) -> str:
    """Render (t, value) points as an ASCII line chart.

    ``markers`` are (time, label) annotations drawn as vertical ticks on
    the x axis — used for the crash / load-balance event times.
    """
    points = [(float(t), float(v)) for t, v in series]
    if len(points) < 2:
        return f"{title}\n  (not enough data)"
    t_min, t_max = points[0][0], points[-1][0]
    values = [v for _t, v in points]
    v_min, v_max = min(values), max(values)
    if v_max == v_min:
        v_max = v_min + 1.0
    t_span = (t_max - t_min) or 1.0

    # Rasterize: one column = one time bucket, plot the bucket mean.
    columns: List[Optional[float]] = [None] * width
    counts = [0] * width
    for t, v in points:
        col = min(width - 1, int((t - t_min) / t_span * width))
        columns[col] = (columns[col] or 0.0) + v
        counts[col] += 1
    for col in range(width):
        if counts[col]:
            columns[col] /= counts[col]

    grid = [[" "] * width for _ in range(height)]
    last_row = None
    for col, value in enumerate(columns):
        if value is None:
            continue
        row = int((value - v_min) / (v_max - v_min) * (height - 1))
        row = height - 1 - max(0, min(height - 1, row))
        grid[row][col] = "*"
        if last_row is not None:
            step = 1 if row > last_row else -1
            for fill in range(last_row + step, row, step):
                if grid[fill][col] == " ":
                    grid[fill][col] = "|"
        last_row = row

    label_width = max(len(f"{v_max:.0f}"), len(f"{v_min:.0f}")) + 1
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{v_max:.0f}".rjust(label_width)
        elif i == height - 1:
            label = f"{v_min:.0f}".rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    axis = [" "] * width
    marker_notes = []
    for time, note in markers or ():
        if not t_min <= time <= t_max:
            continue
        col = min(width - 1, int((time - t_min) / t_span * width))
        axis[col] = "^"
        marker_notes.append(f"^ t={time:.0f}s {note}")
    lines.append(" " * label_width + " +" + "-" * width)
    if any(ch != " " for ch in axis):
        lines.append(" " * label_width + "  " + "".join(axis))
    lines.append(
        " " * label_width
        + f"  {t_min:.0f}s"
        + f"{t_max:.0f}s".rjust(width - len(f"{t_min:.0f}s"))
    )
    lines.append(" " * label_width + "  x: time (s)")
    lines.extend(" " * label_width + "  " + note for note in marker_notes)
    return "\n".join(lines)


def render_timeseries(
    series: TimeSeries,
    title: str = "",
    markers: Optional[Iterable[Tuple[float, str]]] = None,
) -> str:
    """Chart a :class:`TimeSeries` directly."""
    return render_chart(series.points(), title=title or series.name, markers=markers)
