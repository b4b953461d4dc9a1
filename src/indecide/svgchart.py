"""Minimal deterministic SVG output for heatmaps and line charts.

Hand-rolled so reruns of the same data produce byte-identical files; each
chart embeds its source values in an XML comment for auditability.
"""

from __future__ import annotations

import numpy as np

__all__ = ["heatmap_svg", "line_chart_svg"]

_W, _H = 640, 480
_MARGIN = 60


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _fills(values: np.ndarray, vmin: float, vmax: float, missing: str) -> np.ndarray:
    """Cell colors on a blue (0) -> white (0.5) -> red (1) diverging ramp.

    v = (value - vmin) / (vmax - vmin) is clipped to [0, 1] and each channel
    truncated to an int; NaN cells, or every cell when vmax <= vmin, get
    `missing`.
    """
    nan = np.isnan(values)
    if not vmax > vmin:
        return np.full(values.shape, missing)
    v = np.minimum(1.0, np.maximum(0.0, (np.where(nan, vmin, values) - vmin) / (vmax - vmin)))
    low = v < 0.5
    s = np.where(low, v / 0.5, (v - 0.5) / 0.5)
    r = np.where(low, 60 + 195 * s, 255).astype(int)
    g = np.where(low, 80 + 175 * s, 255 - 175 * s).astype(int)
    b = np.where(low, 255, 255 - 195 * s).astype(int)
    codes, index = np.unique(((r << 16) | (g << 8) | b).ravel(), return_inverse=True)
    names = np.array(["#%06x" % code for code in codes.tolist()])
    return np.where(nan, missing, names[index].reshape(values.shape))


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
    missing: str = "#c8c8c8",
) -> str:
    """Render a dense grid as colored cells.

    values[j][i] corresponds to (xs[i], ys[j]); NaN or None cells use the
    `missing` color.  `overlays` are (label, [(x, y), ...]) curves drawn on
    top.
    """
    values = np.asarray(values, dtype=float)  # None becomes NaN
    nx, ny = len(xs), len(ys)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pw, ph = _W - 2 * _MARGIN, _H - 2 * _MARGIN
    cw, ch = pw / nx, ph / ny

    def px(x: float) -> float:
        return _MARGIN + (x - x0) / (x1 - x0) * pw if x1 > x0 else _MARGIN

    def py(y: float) -> float:
        return _H - _MARGIN - ((y - y0) / (y1 - y0) * ph if y1 > y0 else 0.0)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # each position is formatted once; a rect is x, then its row's y and size, then fill
    rect_xs = [f'<rect x="{_fmt(px(x) - cw / 2)}" y="' for x in xs]
    size = f'" width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}" fill="'
    for y, fills in zip(ys, _fills(values, vmin, vmax, missing).tolist()):
        rest = _fmt(py(y) - ch / 2) + size
        parts += [f'{x}{rest}{fill}"/>' for x, fill in zip(rect_xs, fills)]
    for label, pts in overlays or []:
        path = " ".join(
            f"{'M' if k == 0 else 'L'}{_fmt(px(x))},{_fmt(py(y))}" for k, (x, y) in enumerate(pts)
        )
        parts.append(f'<path d="{path}" fill="none" stroke="black" stroke-width="1.5"/>')
        if pts:
            lx, ly = pts[len(pts) // 2]
            parts.append(
                f'<text x="{_fmt(px(lx) + 4)}" y="{_fmt(py(ly) - 4)}" font-size="11" '
                f'font-family="sans-serif">{label}</text>'
            )
    parts += _axes_and_labels(x0, x1, y0, y1, title, xlabel, ylabel, px, py)
    row_format = ",".join(["%.6g"] * nx)  # _fmt per value, nan for NaN
    data_comment = "; ".join(row_format % tuple(row) for row in values.tolist())
    parts.append(f"<!-- data: {data_comment} -->")
    parts.append("</svg>")
    return "\n".join(parts)


def line_chart_svg(
    series: list[tuple[str, list[tuple[float, float]]]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    bands: list[tuple[list[tuple[float, float]], list[tuple[float, float]]]] | None = None,
) -> str:
    """Render labeled polylines; `bands` are (lower, upper) shaded regions."""
    pts_all = [p for _, pts in series for p in pts]
    for lower, upper in bands or []:
        pts_all += lower + upper
    if not pts_all:
        pts_all = [(0.0, 0.0), (1.0, 1.0)]
    x0 = min(p[0] for p in pts_all)
    x1 = max(p[0] for p in pts_all)
    y0 = min(p[1] for p in pts_all)
    y1 = max(p[1] for p in pts_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pw, ph = _W - 2 * _MARGIN, _H - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return _H - _MARGIN - (y - y0) / (y1 - y0) * ph

    colors = ["#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e"]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    for lower, upper in bands or []:
        ring = lower + upper[::-1]
        path = " ".join(
            f"{'M' if k == 0 else 'L'}{_fmt(px(x))},{_fmt(py(y))}" for k, (x, y) in enumerate(ring)
        )
        parts.append(f'<path d="{path} Z" fill="#1b9e77" fill-opacity="0.2" stroke="none"/>')
    for idx, (label, pts) in enumerate(series):
        color = colors[idx % len(colors)]
        path = " ".join(
            f"{'M' if k == 0 else 'L'}{_fmt(px(x))},{_fmt(py(y))}" for k, (x, y) in enumerate(pts)
        )
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_W - _MARGIN - 150}" y="{_MARGIN + 14 * (idx + 1)}" font-size="11" '
            f'fill="{color}" font-family="sans-serif">{label}</text>'
        )
    parts += _axes_and_labels(x0, x1, y0, y1, title, xlabel, ylabel, px, py)
    data_comment = "; ".join(
        label + ": " + ",".join(f"{_fmt(x)}:{_fmt(y)}" for x, y in pts) for label, pts in series
    )
    parts.append(f"<!-- data: {data_comment} -->")
    parts.append("</svg>")
    return "\n".join(parts)


def _axes_and_labels(x0, x1, y0, y1, title, xlabel, ylabel, px, py) -> list[str]:
    parts = [
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" '
        'stroke="black"/>',
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
    if title:
        parts.append(
            f'<text x="{_W // 2}" y="24" font-size="14" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_W // 2}" y="{_H - 12}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_H // 2}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif" transform="rotate(-90 16 {_H // 2})">{ylabel}</text>'
        )
    return parts
