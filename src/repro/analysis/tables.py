"""ASCII rendering of tables and series — the harness's terminal output.

Benchmarks regenerate the paper's tables/figures as text: tables as
aligned columns, figures as ``(x, y)`` series listings suitable for
eyeballing shape and for diffing across runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple


def format_value(value, precision: int = 3) -> str:
    """Human formatting: ints plain, floats with engineering-ish width."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # nan
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render an aligned ASCII table."""
    formatted = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    widths = [
        max(len(str(header)), *(len(row[col]) for row in formatted))
        if formatted
        else len(str(header))
        for col, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in formatted:
        lines.append(
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def render_series(
    name: str,
    xs: Sequence[float],
    ys: Sequence[float],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one curve as a compact point listing (down-sampled to
    about 20 points)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    indices = list(range(len(xs)))
    if len(indices) > 20:
        step = len(indices) / 20
        indices = [int(i * step) for i in range(20)]
        if indices[-1] != len(xs) - 1:
            indices.append(len(xs) - 1)
    points = ", ".join(
        f"({format_value(float(xs[i]))}, {format_value(float(ys[i]))})"
        for i in indices
    )
    return f"{name} [{x_label} vs {y_label}]: {points}"


def render_ascii_plot(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    logx: bool = False,
) -> str:
    """Tiny multi-series ASCII scatter plot (70 × 16 characters) for
    terminal figures."""
    import math

    width, height = 70, 16

    symbols = "ox+*#@%&"
    points = []
    for index, (name, (xs, ys)) in enumerate(series.items()):
        symbol = symbols[index % len(symbols)]
        for x, y in zip(xs, ys):
            x = float(x)
            if logx:
                if x <= 0:
                    continue
                x = math.log10(x)
            points.append((x, float(y), symbol))
    if not points:
        return "(empty plot)"
    xs_all = [p[0] for p in points]
    ys_all = [p[1] for p in points]
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, symbol in points:
        col = int((x - x_min) / x_span * (width - 1))
        row = height - 1 - int((y - y_min) / y_span * (height - 1))
        grid[row][col] = symbol
    legend = "  ".join(
        f"{symbols[i % len(symbols)]}={name}" for i, name in enumerate(series)
    )
    body = "\n".join("|" + "".join(row) + "|" for row in grid)
    x_kind = "log10(x)" if logx else "x"
    footer = (
        f"{x_kind}: [{format_value(x_min)}, {format_value(x_max)}]  "
        f"y: [{format_value(y_min)}, {format_value(y_max)}]"
    )
    return "\n".join([legend, body, footer])
