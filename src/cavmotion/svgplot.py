"""Minimal deterministic SVG line plots of CSV columns or of arrays.

No plotting library: identical input values must yield identical output
bytes, so everything (tick placement, coordinate rounding, colors) is
fixed here.  Polylines break wherever a series leaves the finite range,
and each such break is marked with a dashed vertical rule so branch jumps
and flagged sweep points stay visible.  `render_plot` parses each cell of
its columns by `float()`, a missing or unparsable one as nan; `draw` takes
arrays, which `--plot` rereads from the cells it writes (`_digits.reread`),
so both draw the same doubles.  Coordinates are computed as whole arrays,
in the same operations and order as one point at a time, and written once
per series by `_digits.fixed` (`'%.2f' %` of each); each polyline's
"x,y" points are the lines of its run's cells (`_digits.lines`).
"""

import math
import sys

import numpy as np

from . import _digits

WIDTH, HEIGHT = 640.0, 440.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 20.0, 50.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def parse_csv(text):
    """Header list + rows of string cells from strict comma/newline CSV."""
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise ValueError("empty CSV document")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _to_float(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _column(rows, index):
    """The float values of one column, float() of each cell; a missing or
    unparsable cell is nan."""
    return np.array([_to_float(row[index]) if index < len(row) else math.nan for row in rows],
                    dtype=np.float64)


def _span(values, pad=0.0):
    """Axis limits: the range of the finite values ((0, 1) if none; one value, or
    a range below the smallest normal float, gets a width of 1, or of its float
    spacing where that is wider, downwards from the largest float), widened by
    `pad` of its width at each end and kept within the float range.  Widths are
    taken as differences of halves, which do not overflow and equal the halved
    differences elsewhere."""
    finite = values[np.isfinite(values)]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    top = sys.float_info.max
    if hi - lo < sys.float_info.min:
        hi = lo + max(1.0, math.ulp(lo))
    if hi > top:
        lo, hi = lo - math.ulp(lo), lo
    pad *= hi / 2 - lo / 2
    return max(lo - 2 * pad, -top), min(hi + 2 * pad, top)


def _nice_ticks(lo, hi):
    """Round tick positions covering [lo, hi], about five."""
    raw = (hi / 2 - lo / 2) / 5 * 2  # `_span` keeps it positive and finite
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while math.isfinite(t) and t <= hi + 1e-12 * step:  # a tick past the float range is inf
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # the step is below the float spacing at t
            break
        t += step
    return ticks


def _line(x1, y1, x2, y2, stroke='stroke="black" stroke-width="1"'):
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {stroke}/>'


def _label(x, y, size, text, anchor="middle"):
    """The one writer of text content, so every label is escaped here."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}"{anchor}>{text}</text>'


def render_plot(csv_text, x_column, y_columns, title=""):
    """Render one polyline per y column of a CSV text against x_column; returns SVG text."""
    header, rows = parse_csv(csv_text)
    for name in [x_column, *y_columns]:
        if name not in header:
            raise ValueError(f"column {name!r} not in CSV header {header}")
    return draw(_column(rows, header.index(x_column)), x_column,
                [_column(rows, header.index(name)) for name in y_columns], y_columns, title)


def draw(xs, x_column, series, y_columns, title=""):
    """Render one polyline per array of `series`, named y_columns, against xs; returns SVG text."""
    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(np.ravel(series), pad=0.05)

    def px(x):
        return MARGIN_L + (x / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y):
        return HEIGHT - MARGIN_B - ((y / 2 - y_lo / 2) / (y_hi / 2 - y_lo / 2)
                                    * (HEIGHT - MARGIN_T - MARGIN_B))

    bottom = HEIGHT - MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>',
        _line(MARGIN_L, bottom, WIDTH - MARGIN_R, bottom),
        _line(MARGIN_L, MARGIN_T, MARGIN_L, bottom),
    ]
    if title:
        parts.append(_label(WIDTH / 2, MARGIN_T - 6, 13, title))
    for t in _nice_ticks(x_lo, x_hi):
        parts += [_line(px(t), bottom, px(t), bottom + 4),
                  _label(px(t), bottom + 16, 10, f"{t:.6g}")]
    for t in _nice_ticks(y_lo, y_hi):
        parts += [_line(MARGIN_L - 4, py(t), MARGIN_L, py(t)),
                  _label(MARGIN_L - 7, py(t) + 3, 10, f"{t:.6g}", anchor="end")]
    parts.append(_label(WIDTH / 2, HEIGHT - 10, 11, x_column))

    gaps = set()  # x of every run end that borders a non-finite point
    for si, (name, ys) in enumerate(zip(y_columns, series)):
        stroke = f'stroke="{PALETTE[si % len(PALETTE)]}" stroke-width="1.5"'
        shown = np.flatnonzero(np.isfinite(xs) & np.isfinite(ys))
        if shown.size:
            cells = _digits.fixed(px(xs[shown])), _digits.fixed(py(ys[shown]))
            starts = [0, *(np.flatnonzero(np.diff(shown) != 1) + 1).tolist()]
            for start, stop in zip(starts, [*starts[1:], shown.size]):
                points = _digits.lines([axis[start:stop] for axis in cells], ",", " ")[:-1]
                parts.append(f'<polyline points="{points}" fill="none" {stroke}/>')
                gaps.update(round(px(float(xs[i])), 2)
                            for i, edge in ((shown[start], 0), (shown[stop - 1], len(xs) - 1))
                            if i != edge)
        ly = MARGIN_T + 14 + 14 * si
        parts += [_line(WIDTH - MARGIN_R - 110, ly, WIDTH - MARGIN_R - 90, ly, stroke),
                  _label(WIDTH - MARGIN_R - 85, ly + 3, 10, name, anchor=None)]
    for gx in sorted(gaps):
        parts.append(_line(gx, MARGIN_T, gx, bottom,
                           'stroke="#888888" stroke-width="1" stroke-dasharray="4,3"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
