"""Tests for the SVG line plots: the data are mapped as whole arrays, with
the text a point-by-point rendering gives."""

import math

import numpy as np
import pytest

from xolopt import plots


def _reference_data_lines(frame, series, band):
    """The band polygon and the series polylines, one point at a time: a
    point with a non-finite coordinate ends the polyline before it, and a
    polyline needs two points."""
    lines = []
    if band is not None:
        bx, blo, bhi = (np.asarray(a, dtype=float) for a in band)
        keep = np.isfinite(bx) & np.isfinite(blo) & np.isfinite(bhi)
        bx, blo, bhi = bx[keep], blo[keep], bhi[keep]
        if bx.size:
            pts = [f"{frame.x(x):.1f},{frame.y(lo):.1f}" for x, lo in zip(bx, blo)]
            pts += [f"{frame.x(x):.1f},{frame.y(hi):.1f}" for x, hi in zip(bx[::-1], bhi[::-1])]
            lines.append(f'<polygon points="{" ".join(pts)}" fill="{plots._PALETTE[0]}" '
                         'opacity="0.18"/>')
    for idx, (_, xs, ys) in enumerate(series):
        color = plots._PALETTE[idx % len(plots._PALETTE)]
        segment = []
        for x, y in [*zip(xs, ys), (math.nan, math.nan)]:
            if math.isfinite(x) and math.isfinite(y):
                segment.append(f"{frame.x(x):.1f},{frame.y(y):.1f}")
                continue
            if len(segment) > 1:
                lines.append(f'<polyline points="{" ".join(segment)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.8"/>')
            segment = []
    return lines


def _extremes(series, band):
    """The frame's data range: the finite points of the series and of the
    band, or the unit square without one."""
    xs, ys = [], []
    for _, x, y in series:
        keep = np.isfinite(x) & np.isfinite(y)
        xs.append(np.asarray(x)[keep])
        ys.append(np.asarray(y)[keep])
    if band is not None:
        bx, blo, bhi = band
        keep = np.isfinite(bx) & np.isfinite(blo) & np.isfinite(bhi)
        xs.append(bx[keep])
        ys += [blo[keep], bhi[keep]]
    x, y = np.concatenate(xs), np.concatenate(ys)
    if not x.size:
        return 0.0, 1.0, 0.0, 1.0
    return float(x.min()), float(x.max()), float(y.min()), float(y.max())


def _render(tmp_path, monkeypatch, series, band):
    """The SVG's lines, and the data range its frame was built on."""
    made = []

    class Frame(plots._Frame):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(plots, "_Frame", Frame)
    path = tmp_path / "plot.svg"
    plots.render_svg(path, "title", "x", "y", series, band=band)
    (args,) = made
    return path.read_text().splitlines(), args


def _data_lines(lines):
    return [line for line in lines if line.startswith(("<polygon", "<polyline"))]


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("with_band", [True, False])
def test_series_and_band_match_a_point_by_point_rendering(tmp_path, monkeypatch, with_band):
    """Gap markers at both ends, in a run, and around a lone point break the
    polylines where the point-by-point loop breaks them."""
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-3.0, 40.0, 23))
    y = rng.normal(2.0, 5.0, 23)
    y[[0, 5, 6, 7, 9, 11, 22]] = [NAN, NAN, INF, -INF, NAN, NAN, NAN]
    x2 = np.linspace(0.0, 30.0, 9)
    y2 = np.sqrt(x2)
    x2[4] = NAN
    lo, hi = y - rng.uniform(0.1, 2.0, 23), y + rng.uniform(0.1, 2.0, 23)
    hi[3] = INF
    series = [("estimate", x, y), ("other", x2.tolist(), y2.tolist())]
    band = (x, lo, hi) if with_band else None
    lines, args = _render(tmp_path, monkeypatch, series, band)
    assert args == _extremes([(s[0], np.asarray(s[1]), np.asarray(s[2])) for s in series], band)
    want = _reference_data_lines(plots._Frame(*args), series, band)
    assert _data_lines(lines) == want
    # y draws [1:5] and [12:22], not the lone points 8 and 10; x2 draws two halves
    assert len(want) == 4 + with_band


def test_lorenz_sized_series_matches_a_point_by_point_rendering(tmp_path, monkeypatch):
    u = np.arange(10001) / 10000
    share = np.cumsum(np.random.default_rng(1).pareto(2.5, 10001))
    share /= share[-1]
    series = [("lorenz", u, share), ("equality", np.array([0.0, 1.0]), np.array([0.0, 1.0]))]
    lines, args = _render(tmp_path, monkeypatch, series, None)
    assert _data_lines(lines) == _reference_data_lines(plots._Frame(*args), series, None)


def test_gap_markers_only_give_the_unit_frame(tmp_path, monkeypatch):
    params = np.array([0.5, 1.0, 2.0])
    gaps = np.full(3, NAN)
    lines, args = _render(tmp_path, monkeypatch, [("estimate", params, gaps)],
                          (params, gaps, gaps))
    assert args == (0.0, 1.0, 0.0, 1.0)
    assert _data_lines(lines) == []
    assert lines[0].startswith("<svg") and lines[-1] == "</svg>"
