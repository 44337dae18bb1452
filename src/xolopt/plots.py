"""Minimal static SVG line plots for the analysis outputs.

Only what the CLI needs: polyline series, an optional shaded band, axis
ticks, and a legend.  No external plotting dependency.
"""

from __future__ import annotations

import math

import numpy as np

from .dataio import _atomic_write_text

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48
_PALETTE = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2")


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


class _Frame:
    """Maps data coordinates, floats or arrays, onto the SVG pixel box."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        pad_y = 0.05 * (y_hi - y_lo) if y_hi > y_lo else max(abs(y_hi), 1.0) * 0.05
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y

    def x(self, v):
        span = self.x_hi - self.x_lo or 1.0
        frac = (v - self.x_lo) / span
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def y(self, v):
        span = self.y_hi - self.y_lo or 1.0
        frac = (v - self.y_lo) / span
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def _points(px: np.ndarray, py: np.ndarray) -> list[str]:
    """'x,y' pixel pairs to one decimal, formatted from Python floats."""
    return [f"{x:.1f},{y:.1f}" for x, y in zip(px.tolist(), py.tolist())]


def render_svg(
    path,
    title: str,
    x_label: str,
    y_label: str,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    band: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """Write a line plot; series are (label, x, y), band is (x, lo, hi).

    Points with a non-finite coordinate are gap markers: they break a
    series' polyline and drop out of the band.  Without a finite point the
    frame is the unit square."""
    series = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, xs, ys in series]
    finite = [np.isfinite(xs) & np.isfinite(ys) for _, xs, ys in series]
    xs_all = [xs[keep] for (_, xs, _), keep in zip(series, finite)]
    ys_all = [ys[keep] for (_, _, ys), keep in zip(series, finite)]
    if band is not None:
        bx, blo, bhi = (np.asarray(a, dtype=float) for a in band)
        keep = np.isfinite(bx) & np.isfinite(blo) & np.isfinite(bhi)
        bx, blo, bhi = bx[keep], blo[keep], bhi[keep]
        xs_all.append(bx)
        ys_all.extend([blo, bhi])
    x_cat, y_cat = (np.concatenate([np.empty(0), *parts]) for parts in (xs_all, ys_all))
    if x_cat.size == 0:
        x_cat, y_cat = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    frame = _Frame(float(x_cat.min()), float(x_cat.max()),
                   float(y_cat.min()), float(y_cat.max()))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for t in _nice_ticks(frame.x_lo, frame.x_hi):
        px = frame.x(t)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" x2="{px:.1f}" '
            f'y2="{_MARGIN_T}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 16}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(frame.y_lo, frame.y_hi):
        py = frame.y(t)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.1f}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{py:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{py + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="#333333"/>'
    )
    if band is not None and bx.size:
        px = frame.x(bx)
        pts = _points(px, frame.y(blo)) + _points(px[::-1], frame.y(bhi)[::-1])
        parts.append(
            f'<polygon points="{" ".join(pts)}" fill="{_PALETTE[0]}" opacity="0.18"/>'
        )
    for idx, ((label, xs, ys), keep) in enumerate(zip(series, finite)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = _points(frame.x(xs[keep]), frame.y(ys[keep]))
        # break the polyline at gap markers: each one falls before the kept
        # point of its index less the markers ahead of it
        gaps = np.flatnonzero(~keep)
        ends = [0, *(gaps - np.arange(gaps.size)).tolist(), len(pts)]
        for lo, hi in zip(ends, ends[1:]):
            if hi - lo > 1:
                parts.append(
                    f'<polyline points="{" ".join(pts[lo:hi])}" fill="none" '
                    f'stroke="{color}" stroke-width="1.8"/>'
                )
        ly = _MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{_WIDTH - 150}" y1="{ly - 4}" x2="{_WIDTH - 126}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(f'<text x="{_WIDTH - 120}" y="{ly}">{label}</text>')
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.0f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.0f}" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.0f})">{y_label}</text>'
    )
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")
