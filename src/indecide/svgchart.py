"""Minimal deterministic SVG output for heatmaps and line charts.

Hand-rolled so reruns of the same data produce byte-identical files; each
chart embeds its source values in an XML comment for auditability.
"""

from __future__ import annotations

import numpy as np

__all__ = ["heatmap_svg", "line_chart_svg"]

_W, _H = 640, 480
_MARGIN = 60
_COLORS = ["#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e"]
_MISSING = "#c8c8c8"  # heatmap cells without a value


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _scales(x0: float, x1: float, y0: float, y1: float):
    """Data-to-pixel maps of the ranges [x0, x1] and [y0, y1], each of nonzero width, onto the plot area."""
    pw, ph = _W - 2 * _MARGIN, _H - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return _H - _MARGIN - (y - y0) / (y1 - y0) * ph

    return px, py


def _path(points, px, py) -> str:
    """The path data through `points`: a move to the first, then a line to each."""
    return " ".join(f"{'L' if k else 'M'}{_fmt(px(x))},{_fmt(py(y))}" for k, (x, y) in enumerate(points))


def _document(body: list[str], bounds, px, py, title: str, xlabel: str, ylabel: str, data: str) -> str:
    """The chart `body` in the frame both charts share: white background, both axes with five
    ticks over bounds = (x0, x1, y0, y1), the nonempty labels, and `data` in a closing comment."""
    x0, x1, y0, y1 = bounds
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        *body,
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
    ]
    for k in range(5):
        x = x0 + (x1 - x0) * k / 4
        y = y0 + (y1 - y0) * k / 4
        parts.append(
            f'<text x="{_fmt(px(x))}" y="{_H - _MARGIN + 16}" font-size="10" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(x)}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{_fmt(py(y) + 3)}" font-size="10" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(y)}</text>'
        )
    for text, where, rotate in (
        (title, f'x="{_W // 2}" y="24" font-size="14"', ""),
        (xlabel, f'x="{_W // 2}" y="{_H - 12}" font-size="12"', ""),
        (ylabel, f'x="16" y="{_H // 2}" font-size="12"', f' transform="rotate(-90 16 {_H // 2})"'),
    ):
        if text:
            parts.append(f'<text {where} text-anchor="middle" font-family="sans-serif"{rotate}>{text}</text>')
    parts += [f"<!-- data: {data} -->", "</svg>"]
    return "\n".join(parts)


def _fills(values: np.ndarray, vmin: float, vmax: float) -> np.ndarray:
    """Cell colors on a blue (0) -> white (0.5) -> red (1) diverging ramp, as
    0xRRGGBB ints, with -1 for _MISSING.

    v = (value - vmin) / (vmax - vmin) is clipped to [0, 1] and each channel
    truncated to an int; NaN cells, or every cell when vmax <= vmin, are
    missing.
    """
    if not vmax > vmin:
        return np.full(values.shape, -1)
    nan = np.isnan(values)
    v = np.minimum(1.0, np.maximum(0.0, (np.where(nan, vmin, values) - vmin) / (vmax - vmin)))
    low = v < 0.5
    s = np.where(low, v / 0.5, (v - 0.5) / 0.5)
    r = np.where(low, 60 + 195 * s, 255).astype(int)
    g = np.where(low, 80 + 175 * s, 255 - 175 * s).astype(int)
    b = np.where(low, 255, 255 - 195 * s).astype(int)
    return np.where(nan, -1, (r << 16) | (g << 8) | b)


def heatmap_svg(
    xs: list[float],
    ys: list[float],
    values: list[list[float]],
    *,
    vmin: float,
    vmax: float,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    overlays: list[tuple[str, list[tuple[float, float]]]] | None = None,
) -> str:
    """Render a dense grid as colored cells.

    values[j][i] corresponds to (xs[i], ys[j]); NaN or None cells are drawn
    in _MISSING grey.  `overlays` are (label, [(x, y), ...]) curves drawn on
    top.  Each axis is widened by half a grid step on each side (+- 0.5 for
    one column or row), so n evenly spaced cells, 1/n of the plot each, tile it.

    Each cell is centred on its data position.  One rect is drawn per maximal
    run of cells in a row that share a color: it starts at the run's first
    cell's left edge and ends at its last cell's right edge, both as the cell's
    own rect would write them.  So every cell's centre is painted in its color.
    """
    values = np.asarray(values, dtype=float)  # None becomes NaN
    bounds = ()
    for axis in (xs, ys):  # widened by half a grid step on each side, 0.5 for a single value
        lo, hi = min(axis), max(axis)
        half = 0.5 if hi == lo else (hi - lo) / (len(axis) - 1) / 2
        bounds += (lo - half, hi + half)
    px, py = _scales(*bounds)
    cw, ch = (_W - 2 * _MARGIN) / len(xs), (_H - 2 * _MARGIN) / len(ys)
    # right edges are the rounded left edge plus the rounded cell width, so a run of
    # one cell has the cell's width string and a longer run ends within half a
    # sixth digit of where its last cell's rect would
    lefts = [_fmt(px(x) - cw / 2) for x in xs]
    left_px = np.array(lefts, dtype=float)
    width_px = float(_fmt(cw + 0.5))
    height = f'" height="{_fmt(ch + 0.5)}" fill="'
    body = []
    for y, row in zip(ys, values):  # one row at a time, so no grid-sized temporaries
        # one rect per maximal run of equal colors: a run starts at column 0 or
        # where the color changes, and ends where the next run starts
        rgb = _fills(row, vmin, vmax)
        first = np.flatnonzero(np.append(True, rgb[1:] != rgb[:-1]))
        last = np.append(first[1:], rgb.size) - 1
        widths = (left_px[last] + width_px - left_px[first]).tolist()
        rect_y = f'" y="{_fmt(py(y) - ch / 2)}" width="'
        body += [
            f'<rect x="{lefts[i]}{rect_y}{_fmt(w)}{height}{_MISSING if c < 0 else "#%06x" % c}"/>'
            for i, w, c in zip(first.tolist(), widths, rgb[first].tolist())
        ]
    for label, pts in overlays or []:
        body.append(f'<path d="{_path(pts, px, py)}" fill="none" stroke="black" stroke-width="1.5"/>')
        if pts:
            lx, ly = pts[len(pts) // 2]
            body.append(
                f'<text x="{_fmt(px(lx) + 4)}" y="{_fmt(py(ly) - 4)}" font-size="11" '
                f'font-family="sans-serif">{label}</text>'
            )
    row_format = ",".join(["%.6g"] * len(xs))  # _fmt per value, nan for NaN
    data = "; ".join(row_format % tuple(row.tolist()) for row in values)  # one row's floats at a time
    return _document(body, bounds, px, py, title, xlabel, ylabel, data)


def line_chart_svg(
    series: list[tuple[str, list[tuple[float, float]]]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    bands: list[tuple[list[tuple[float, float]], list[tuple[float, float]]]] | None = None,
) -> str:
    """Render labeled polylines; `bands` are (lower, upper) shaded regions.

    A zero-width data range is widened by 1; no data at all spans [0, 1].
    """
    pts_all = [p for _, pts in series for p in pts]
    for lower, upper in bands or []:
        pts_all += lower + upper
    xs, ys = zip(*pts_all) if pts_all else ((0.0, 1.0), (0.0, 1.0))
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    bounds = (x0, x0 + 1.0 if x1 == x0 else x1, y0, y0 + 1.0 if y1 == y0 else y1)
    px, py = _scales(*bounds)
    body = [
        f'<path d="{_path(lower + upper[::-1], px, py)} Z" fill="#1b9e77" fill-opacity="0.2" stroke="none"/>'
        for lower, upper in bands or []
    ]
    for idx, (label, pts) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        body.append(f'<path d="{_path(pts, px, py)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        body.append(
            f'<text x="{_W - _MARGIN - 150}" y="{_MARGIN + 14 * (idx + 1)}" font-size="11" '
            f'fill="{color}" font-family="sans-serif">{label}</text>'
        )
    data = "; ".join(label + ": " + ",".join(f"{_fmt(x)}:{_fmt(y)}" for x, y in pts) for label, pts in series)
    return _document(body, bounds, px, py, title, xlabel, ylabel, data)
