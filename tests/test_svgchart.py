"""Tests for the deterministic SVG writers."""

import math
import re

import numpy as np

from indecide.svgchart import heatmap_svg, line_chart_svg


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


def fills(svg: str) -> list[str]:
    return re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" fill="([^"]*)"/>', svg)


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
        assert fills(svg) == expected

    def test_degenerate_range_is_all_missing(self):
        svg = heatmap_svg([0.0, 1.0], [0.0], [[1.0, 2.0]], vmin=1.0, vmax=1.0, missing="#000000")
        assert fills(svg) == ["#000000", "#000000"]

    def test_data_comment_rows(self):
        svg = heatmap_svg([0.0, 1.0], [0.0, 1.0], [[0.1234567, None], [math.nan, 2]], vmin=0.0, vmax=1.0)
        assert "<!-- data: 0.123457,nan; nan,2 -->" in svg


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

    def test_one_column_heatmap_sits_on_the_left_edge(self):
        svg = heatmap_svg([0.5], [0.0, 1.0], [[0.2], [0.7]], vmin=0.0, vmax=1.0)
        cells = re.findall(r'<rect x="([^"]*)" y="[^"]*" width="([^"]*)"', svg)
        # each cell is the plot's full width plus the 0.5 px overlap, centred at x = 60
        assert cells == [("-200", "520.5"), ("-200", "520.5")]
        assert ticks(svg)[0] == [(60, 0.5)] * 5
