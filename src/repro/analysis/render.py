"""Plain-text rendering of result tables and simple series plots.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output consistent and diff-friendly.
"""

from __future__ import annotations

from typing import Any, Sequence


def format_table(rows: Sequence[dict[str, Any]], *,
                 title: str | None = None) -> str:
    """Render a list of uniform dicts as an aligned text table."""
    if not rows:
        return "(empty table)"
    columns = list(rows[0])
    widths = {c: len(str(c)) for c in columns}
    for row in rows:
        for c in columns:
            widths[c] = max(widths[c], len(str(row.get(c, ""))))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c])
                               for c in columns))
    return "\n".join(lines)


def format_series(points: Sequence[tuple[float, float]], *,
                  x_label: str = "x", y_label: str = "y",
                  title: str | None = None, precision: int = 3) -> str:
    """Render an (x, y) series as aligned rows."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{x_label:>12}  {y_label:>12}")
    for x, y in points:
        lines.append(f"{x:>12.{precision}f}  {y:>12.{precision}f}")
    return "\n".join(lines)


def format_bars(items: Sequence[tuple[str, float]], *,
                width: int = 40, title: str | None = None,
                precision: int = 3) -> str:
    """Render labeled values as a horizontal ASCII bar chart."""
    if not items:
        return "(no data)"
    label_width = max(len(label) for label, _ in items)
    peak = max(value for _, value in items)
    lines = []
    if title:
        lines.append(title)
    for label, value in items:
        length = 0 if peak <= 0 else int(round(width * value / peak))
        bar = "#" * max(length, 1 if value > 0 else 0)
        lines.append(f"{label.ljust(label_width)}  {bar} {value:.{precision}f}")
    return "\n".join(lines)
