"""Tests for the deterministic SVG writers."""

import math
import os
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indecide import gmm
from indecide.cli import _phase_configs
from indecide.svgchart import heatmap_svg, line_chart_svg

DATA = Path(__file__).parent / "data"
RECT = re.compile(r'<rect x="([^"]*)" y="([^"]*)" width="([^"]*)" height="([^"]*)" fill="([^"]*)"/>')


def scalar_color(v: float) -> str:
    """The per-cell ramp the vectorized fills must reproduce."""
    v = min(1.0, max(0.0, v))
    if v < 0.5:
        s = v / 0.5
        r, g, b = int(60 + 195 * s), int(80 + 175 * s), 255
    else:
        s = (v - 0.5) / 0.5
        r, g, b = 255, int(255 - 175 * s), int(255 - 195 * s)
    return f"#{r:02x}{g:02x}{b:02x}"


def widened(axis) -> tuple[float, float]:
    """The heatmap's range of an axis: the data range plus half a grid step on
    each side, or the value +- 0.5 when all values are equal."""
    lo, hi = min(axis), max(axis)
    half = 0.5 if hi == lo else (hi - lo) / (len(axis) - 1) / 2
    return lo - half, hi + half


def per_cell_rects(xs, ys, values, vmin, vmax, missing="#c8c8c8") -> list[tuple]:
    """(x, y, width, height, fill) of each heatmap cell as one rect per cell
    writes it, row by row: the oracle for the runs."""
    (x0, x1), (y0, y1) = widened(xs), widened(ys)
    cw, ch = 520 / len(xs), 360 / len(ys)
    cells = []
    for y, row in zip(ys, values):
        for x, v in zip(xs, row):
            if not vmax > vmin or v is None or math.isnan(v):
                fill = missing
            else:
                fill = scalar_color((v - vmin) / (vmax - vmin))
            px, py = 60 + (x - x0) / (x1 - x0) * 520, 420 - (y - y0) / (y1 - y0) * 360
            geometry = (px - cw / 2, py - ch / 2, cw + 0.5, ch + 0.5)
            cells.append((*(format(g, ".6g") for g in geometry), fill))
    return cells


def assert_runs_cover_cells(runs: list[tuple], cells: list[tuple]) -> None:
    """Each run starts at the next cell with that cell's x, y, height and fill
    strings, and spans the cells of its row up to the one whose right edge
    is within 1e-3 px of its own, all of its fill; the runs cover every cell."""
    cells = iter(cells)
    for x, y, width, height, fill in runs:
        cell = next(cells)
        assert cell[0] == x
        right = float(x) + float(width)
        while True:
            assert (cell[1], cell[3], cell[4]) == (y, height, fill)
            cell_right = float(cell[0]) + float(cell[2])
            if abs(cell_right - right) <= 1e-3:
                break
            assert cell_right < right
            cell = next(cells)
    assert next(cells, None) is None


def fills(svg: str, columns: int) -> list[str]:
    """The fill of each cell of a heatmap with `columns` evenly spaced cells per
    row, row by row: each rect counts for the cells its width spans."""
    cw = 520 / columns
    return [fill for _, _, w, _, fill in RECT.findall(svg) for _ in range(round((float(w) - 0.5) / cw))]


def ticks(svg: str) -> tuple[list, list]:
    """(pixel, value) of each x tick and each y tick, as floats."""
    x = re.findall(r'<text x="([^"]*)" y="436" font-size="10" text-anchor="middle" [^>]*>([^<]*)<', svg)
    y = re.findall(r'<text x="54" y="([^"]*)" font-size="10" text-anchor="end" [^>]*>([^<]*)<', svg)
    return [(float(p), float(v)) for p, v in x], [(float(p), float(v)) for p, v in y]


class TestHeatmap:
    def test_fills_match_the_scalar_ramp(self):
        vmin, vmax = 0.5, 2.0
        rng = np.random.default_rng(0)
        edges = [vmin + (vmax - vmin) * k / 8 for k in range(9)] + [0.0, 0.49, 2.01, 7.0]
        row = edges + rng.uniform(0.0, 2.5, 40).tolist()
        values = [row, [math.nan] + row[1:], [None] + row[1:]]
        xs = [float(i) for i in range(len(row))]
        svg = heatmap_svg(xs, [0.0, 1.0, 2.0], values, vmin=vmin, vmax=vmax)
        expected = [
            "#c8c8c8" if v is None or math.isnan(v) else scalar_color((v - vmin) / (vmax - vmin))
            for r in values
            for v in r
        ]
        assert fills(svg, len(xs)) == expected

    def test_degenerate_range_is_all_missing(self):
        svg = heatmap_svg([0.0, 1.0], [0.0], [[1.0, 2.0]], vmin=1.0, vmax=1.0)
        assert fills(svg, 2) == ["#c8c8c8", "#c8c8c8"]

    def test_data_comment_rows(self):
        svg = heatmap_svg([0.0, 1.0], [0.0, 1.0], [[0.1234567, None], [math.nan, 2]], vmin=0.0, vmax=1.0)
        assert "<!-- data: 0.123457,nan; nan,2 -->" in svg

    @settings(max_examples=100, deadline=None)
    @given(
        nx=st.integers(2, 40),
        ny=st.integers(2, 40),
        lo=st.floats(-1e3, 1e3),
        span=st.floats(1e-3, 1e3),
        # a small palette per grid, so ties and runs are common
        palette=st.lists(st.sampled_from([-1.0, 0.0, 0.3, 0.5, 1.0, 2.5, math.nan, None]), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        vrange=st.sampled_from([(0.0, 1.0), (0.3, 0.5), (-1.0, 2.5), (0.5, 0.5), (1.0, 0.0)]),
    )
    def test_runs_paint_the_per_cell_picture(self, nx, ny, lo, span, palette, seed, vrange):
        xs = np.linspace(lo, lo + span, nx).tolist()
        ys = np.linspace(-lo, -lo + span / 2, ny).tolist()
        picks = np.random.default_rng(seed).integers(len(palette), size=(ny, nx)).tolist()
        values = [[palette[k] for k in row] for row in picks]
        vmin, vmax = vrange
        runs = RECT.findall(heatmap_svg(xs, ys, values, vmin=vmin, vmax=vmax))
        oracle = per_cell_rects(xs, ys, values, vmin, vmax)
        assert_runs_cover_cells(runs, oracle)
        # runs are maximal: neighbours in a row differ in fill
        assert all(a[4] != b[4] for a, b in zip(runs, runs[1:]) if a[1] == b[1])
        # each cell's centre gets the oracle's fill from the last rect painted over it
        x, y, w, h = (np.array([float(r[k]) for r in runs]) for k in range(4))
        cx = np.array([float(c[0]) + (float(c[2]) - 0.5) / 2 for c in oracle])
        cy = np.array([float(c[1]) + (float(c[3]) - 0.5) / 2 for c in oracle])
        over = (x <= cx[:, None]) & (cx[:, None] <= x + w) & (y <= cy[:, None]) & (cy[:, None] <= y + h)
        painted = len(runs) - 1 - np.argmax(over[:, ::-1], axis=1)
        assert over.any(axis=1).all()
        assert [runs[k][4] for k in painted] == [c[4] for c in oracle]


def phase_heatmap_arguments(panel: str) -> tuple:
    """(xs, ys, values, vmin, vmax) of the panel's heatmap at 12 grid points,
    as the phase golden test's run draws it."""
    calls = []

    def recording(xs, ys, values, **kw):
        calls.append((xs, ys, values.tolist(), kw["vmin"], kw["vmax"]))
        return heatmap_svg(xs, ys, values, **kw)

    cfg = dict(_phase_configs(12))[panel]
    real = gmm.heatmap_svg
    gmm.heatmap_svg = recording
    try:
        gmm.phase_grid_to_svg(gmm.phase_grid(cfg), cfg, os.devnull)
    finally:
        gmm.heatmap_svg = real
    (call,) = calls
    return call


class TestGoldenFiles:
    @pytest.mark.parametrize("panel", ["lower", "upper"])
    def test_runs_expand_to_the_per_cell_rendering(self, panel):
        # phase_*_percell.svg are the golden SVGs with one rect per cell, as per_cell_rects writes them
        runs_svg = (DATA / f"phase_{panel}_golden.svg").read_text()
        cells_svg = (DATA / f"phase_{panel}_percell.svg").read_text()
        cells = [tuple(rect) for rect in RECT.findall(cells_svg)]
        assert cells == per_cell_rects(*phase_heatmap_arguments(panel))
        assert_runs_cover_cells(RECT.findall(runs_svg), cells)
        assert [line for line in runs_svg.splitlines() if not RECT.fullmatch(line)] == [
            line for line in cells_svg.splitlines() if not RECT.fullmatch(line)
        ]

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.svg")), ids=lambda p: p.name)
    def test_svg_is_well_formed(self, path):
        # the phase and study golden tests write exactly these bytes
        assert ET.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"


class TestFrame:
    """The plot spans x 60..580 and y 420..60 px, with five ticks per axis."""

    def test_line_chart_widens_a_zero_width_range_by_one(self):
        x, y = ticks(line_chart_svg([("a", [(1.0, 2.0)])]))
        assert x == [(60, 1), (190, 1.25), (320, 1.5), (450, 1.75), (580, 2)]
        assert y == [(423, 2), (333, 2.25), (243, 2.5), (153, 2.75), (63, 3)]

    def test_empty_line_chart_spans_zero_to_one(self):
        x, y = ticks(line_chart_svg([]))
        assert x == [(60, 0), (190, 0.25), (320, 0.5), (450, 0.75), (580, 1)]
        assert y == [(423, 0), (333, 0.25), (243, 0.5), (153, 0.75), (63, 1)]

    def test_one_column_heatmap_fills_the_plot_width(self):
        svg = heatmap_svg([0.5], [0.0, 1.0], [[0.2], [0.7]], vmin=0.0, vmax=1.0)
        # the x range widens to 0.5 +- 0.5: each cell spans the plot, plus the 0.5 px overlap
        assert [(r[0], r[2]) for r in RECT.findall(svg)] == [("60", "520.5")] * 2
        assert ticks(svg)[0] == [(60, 0), (190, 0.25), (320, 0.5), (450, 0.75), (580, 1)]

    def test_evenly_spaced_cells_tile_the_plot(self):
        svg = heatmap_svg([0.0, 1.0, 2.0], [0.0, 1.0], [[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]], vmin=0.0, vmax=1.0)
        # three columns of 520/3 px and two rows of 180 px, the first row at the bottom, each 0.5 px wider to overlap
        assert [r[:4] for r in RECT.findall(svg)] == [
            (x, y, "173.833", "180.5") for y in ("240", "60") for x in ("60", "233.333", "406.667")
        ]
        # the ranges widen by half a step: x to [-0.5, 2.5], y to [-0.5, 1.5]
        assert ticks(svg) == (
            [(60, -0.5), (190, 0.25), (320, 1), (450, 1.75), (580, 2.5)],
            [(423, -0.5), (333, 0), (243, 0.5), (153, 1), (63, 1.5)],
        )

    @settings(max_examples=50, deadline=None)
    @given(nx=st.integers(2, 60), ny=st.integers(2, 60), lo=st.floats(-1e3, 1e3), span=st.floats(1e-3, 1e3))
    def test_cells_leave_no_gap_and_stay_in_the_plot(self, nx, ny, lo, span):
        xs, ys = np.linspace(lo, lo + span, nx).tolist(), np.linspace(lo, lo + span, ny).tolist()
        values = np.arange(nx * ny, dtype=float).reshape(ny, nx) % 2  # neighbours differ: one rect per cell
        rects = np.array([[float(v) for v in r[:4]] for r in RECT.findall(heatmap_svg(xs, ys, values, vmin=0.0, vmax=1.0))])
        x, y, w, h = rects.T
        # each cell starts where its left (lower) neighbour's 0.5 px overlap begins, to 1e-3 px
        assert np.allclose(x[1:nx] - x[: nx - 1], w[: nx - 1] - 0.5, atol=1e-3)
        assert np.allclose(y[:-nx:nx] - y[nx::nx], h[nx::nx] - 0.5, atol=1e-3)
        assert abs(x.min() - 60) <= 1e-3 and abs((x + w).max() - 580.5) <= 1e-3
        assert abs(y.min() - 60) <= 1e-3 and abs((y + h).max() - 420.5) <= 1e-3

    def test_one_row_heatmap_fills_the_plot_height(self):
        svg = heatmap_svg([0.0, 1.0], [0.5], [[0.2, 0.7]], vmin=0.0, vmax=1.0)
        assert [(r[1], r[3]) for r in RECT.findall(svg)] == [("60", "360.5")] * 2
        assert ticks(svg)[1] == [(423, 0), (333, 0.25), (243, 0.5), (153, 0.75), (63, 1)]
