"""Deterministic SVG reproductions of the planar figures.

Every figure is a pure function of its arguments: fixed 800×800 viewport,
fixed palette, 512 samples per curve, coordinates formatted to three
decimals — identical inputs produce byte-identical documents.  Limit objects
are drawn as sampled dot sets (they are discontinuous staircases); each
figure also overlays the smooth finite-p curve that converges to them.
"""

from __future__ import annotations

from typing import Sequence

from .deform import _float, _p_samples
from .errors import MAX_FIGURE_P, DimensionMismatch, TooLarge
from .hull import co_point
from .linalg import vec
from .lines import half_lines
from .metric import Fixed, ball_describe
from .scalars import ONE, ZERO, boxplus, q
from .trig import alpha_inv, pcos

__all__ = [
    "FIGURES",
    "figure_ball",
    "figure_hull",
    "figure_line",
    "figure_pcos",
    "figure_unit_square",
    "render_figure",
]

VIEW = 800
MARGIN = 70
CURVE_SAMPLES = 512

_AXIS = "#9a9a9a"
_LIMIT = "#b3362b"
_DEFORMED = "#2a6fb3"
_SHAPE = "#2a6fb3"
_TEXT = "#3a3a3a"


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


class _Canvas:
    """Fixed-viewport canvas mapping a world box to screen coordinates."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        self.y_lo, self.y_hi = float(y_lo), float(y_hi)
        span = VIEW - 2 * MARGIN
        self.sx = span / (self.x_hi - self.x_lo)
        self.sy = span / (self.y_hi - self.y_lo)
        self.parts: list[str] = []

    def to_screen(self, x, y) -> tuple[float, float]:
        px = MARGIN + (float(x) - self.x_lo) * self.sx
        py = VIEW - MARGIN - (float(y) - self.y_lo) * self.sy
        return px, py

    def dot(self, x, y, r: float = 2.4, color: str = _LIMIT):
        px, py = self.to_screen(x, y)
        self.parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}" fill="{color}"/>'
        )

    def marker(self, x, y, color: str = _TEXT):
        px, py = self.to_screen(x, y)
        self.parts.append(
            f'<rect x="{_fmt(px - 4)}" y="{_fmt(py - 4)}" width="8" height="8" '
            f'fill="none" stroke="{color}" stroke-width="1.6"/>'
        )

    def segment(self, x1, y1, x2, y2, color: str = _AXIS, width: float = 1.0,
                dash: str | None = None):
        p1, p2 = self.to_screen(x1, y1), self.to_screen(x2, y2)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(p1[0])}" y1="{_fmt(p1[1])}" x2="{_fmt(p2[0])}" '
            f'y2="{_fmt(p2[1])}" stroke="{color}" stroke-width="{width}"{extra}/>'
        )

    def polyline(self, points: Sequence[tuple], color: str = _DEFORMED,
                 width: float = 1.2):
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in (self.to_screen(x, y) for x, y in points)
        )
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>'
        )

    def rect_world(self, x_lo, y_lo, x_hi, y_hi, color: str = _SHAPE):
        p_lo = self.to_screen(x_lo, y_hi)
        p_hi = self.to_screen(x_hi, y_lo)
        self.parts.append(
            f'<rect x="{_fmt(p_lo[0])}" y="{_fmt(p_lo[1])}" '
            f'width="{_fmt(p_hi[0] - p_lo[0])}" height="{_fmt(p_hi[1] - p_lo[1])}" '
            f'fill="{color}" fill-opacity="0.18" stroke="{color}" stroke-width="1.4"/>'
        )

    def text(self, x, y, s: str, color: str = _TEXT, anchor: str = "start",
             screen_offset: tuple[float, float] = (0.0, 0.0)):
        px, py = self.to_screen(x, y)
        self.parts.append(
            f'<text x="{_fmt(px + screen_offset[0])}" y="{_fmt(py + screen_offset[1])}" '
            f'fill="{color}" text-anchor="{anchor}">{s}</text>'
        )

    def label(self, s: str, slot: int = 0, color: str = _TEXT):
        self.parts.append(
            f'<text x="{MARGIN}" y="{28 + 20 * slot}" fill="{color}">{s}</text>'
        )

    def axes(self):
        x0 = min(max(0.0, self.x_lo), self.x_hi)
        y0 = min(max(0.0, self.y_lo), self.y_hi)
        self.segment(self.x_lo, y0, self.x_hi, y0, _AXIS, 1.0)
        self.segment(x0, self.y_lo, x0, self.y_hi, _AXIS, 1.0)
        step_x = max(1, round((self.x_hi - self.x_lo) / 8))
        step_y = max(1, round((self.y_hi - self.y_lo) / 8))
        k = int(self.x_lo // step_x)
        while k * step_x <= self.x_hi:
            t = k * step_x
            if self.x_lo <= t <= self.x_hi and t != 0:
                px, py = self.to_screen(t, y0)
                self.parts.append(
                    f'<line x1="{_fmt(px)}" y1="{_fmt(py - 3)}" x2="{_fmt(px)}" '
                    f'y2="{_fmt(py + 3)}" stroke="{_AXIS}" stroke-width="1"/>'
                )
                self.parts.append(
                    f'<text x="{_fmt(px)}" y="{_fmt(py + 18)}" fill="{_TEXT}" '
                    f'font-size="11" text-anchor="middle">{t}</text>'
                )
            k += 1
        k = int(self.y_lo // step_y)
        while k * step_y <= self.y_hi:
            t = k * step_y
            if self.y_lo <= t <= self.y_hi and t != 0:
                px, py = self.to_screen(x0, t)
                self.parts.append(
                    f'<line x1="{_fmt(px - 3)}" y1="{_fmt(py)}" x2="{_fmt(px + 3)}" '
                    f'y2="{_fmt(py)}" stroke="{_AXIS}" stroke-width="1"/>'
                )
                self.parts.append(
                    f'<text x="{_fmt(px - 8)}" y="{_fmt(py + 4)}" fill="{_TEXT}" '
                    f'font-size="11" text-anchor="end">{t}</text>'
                )
            k += 1

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" '
            f'height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">\n'
            f'<rect width="{VIEW}" height="{VIEW}" fill="#ffffff"/>\n'
            '<g font-family="Helvetica,Arial,sans-serif" font-size="13">\n'
        )
        return head + "\n".join(self.parts) + "\n</g>\n</svg>\n"


def _pair2d(x, y) -> tuple:
    xv, yv = vec(x), vec(y)
    if len(xv) != 2 or len(yv) != 2:
        raise DimensionMismatch("figures need dimension-2 inputs")
    return xv, yv


def _check_figure_p(p: int) -> None:
    """Raise TooLarge, before the first of the deformed samples, above
    MAX_FIGURE_P."""
    if p > MAX_FIGURE_P:
        raise TooLarge(f"figure p limited to p <= {MAX_FIGURE_P}, got {p}")


def _bounds(points, pad: float = 0.2) -> tuple[float, float, float, float]:
    xs = [float(p[0]) for p in points] + [0.0]
    ys = [float(p[1]) for p in points] + [0.0]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    w = max(x_hi - x_lo, 1.0)
    h = max(y_hi - y_lo, 1.0)
    return x_lo - pad * w, x_hi + pad * w, y_lo - pad * h, y_hi + pad * h


def figure_hull(x, y, p: int = 6) -> str:
    """Two-point hull: finite-p curve plus sampled limit staircase."""
    xv, yv = _pair2d(x, y)
    _check_figure_p(p)
    n = CURVE_SAMPLES
    ts = [q(i, n - 1) for i in range(n)]
    curve = [tuple(map(_float, pt)) for pt in _p_samples(xv, yv, p, ts, "hull")]
    limit = [co_point(xv, yv, (q(i, 384), ZERO, ONE, ZERO)) for i in range(384)]
    limit += [co_point(xv, yv, (ONE, ZERO, q(i, 127), ZERO)) for i in range(128)]
    c = _Canvas(*_bounds(list(curve) + [xv, yv]))
    c.axes()
    c.polyline(curve)
    for pt in limit:
        c.dot(pt[0], pt[1], 1.8)
    c.marker(*xv)
    c.marker(*yv)
    c.text(xv[0], xv[1], "x", screen_offset=(8, -8))
    c.text(yv[0], yv[1], "y", screen_offset=(8, -8))
    c.label(f"two-point hull: deformed curve at p={p} and sampled limit set")
    return c.render()


def figure_ball(center, radius) -> str:
    """Closed ultrametric ball: point, segment, or square by regime."""
    cv = vec(center)
    if len(cv) != 2:
        raise DimensionMismatch("figures need dimension-2 inputs")
    desc = ball_describe(cv, radius)
    a = desc.radius
    span = [cv, (a, a), (-a, -a)]
    c = _Canvas(*_bounds(span, pad=0.3))
    c.axes()
    first, second = desc.coords
    if isinstance(first, Fixed) and isinstance(second, Fixed):
        c.dot(cv[0], cv[1], 4.0, _SHAPE)
    elif isinstance(first, Fixed):
        c.segment(cv[0], -a, cv[0], a, _SHAPE, 3.0)
    elif isinstance(second, Fixed):
        c.segment(-a, cv[1], a, cv[1], _SHAPE, 3.0)
    else:
        c.rect_world(-a, -a, a, a)
    c.marker(*cv)
    c.text(cv[0], cv[1], "center", screen_offset=(8, -8))
    c.label(f"closed ball, radius {radius}: "
            + ", ".join(
                f"coordinate {i + 1} {'pinned' if isinstance(t, Fixed) else 'free'}"
                for i, t in enumerate(desc.coords)
            ))
    return c.render()


def figure_line(x, y, p: int = 6) -> str:
    """Limit line through two points: central span plus both half-lines."""
    xv, yv = _pair2d(x, y)
    _check_figure_p(p)
    n = CURVE_SAMPLES
    ss = [q(-3) + q(6) * q(i, n - 1) for i in range(n)]
    curve = [tuple(map(_float, pt)) for pt in _p_samples(xv, yv, p, ss, "line")]
    limit = []
    for i in range(170):
        s = q(-169 + 2 * i, 170)  # inside (-1, 1)
        limit.append(tuple(boxplus(s * a, b) for a, b in zip(xv, yv)))
    h1, h2 = half_lines(xv, yv)
    for i in range(171):
        t = ONE + q(2) * q(i, 170)
        limit.append(h1.point(t))
        limit.append(h2.point(t))
    c = _Canvas(*_bounds(list(curve) + limit + [xv, yv], pad=0.1))
    c.axes()
    c.polyline(curve)
    for pt in limit:
        c.dot(pt[0], pt[1], 1.8)
    c.marker(*xv)
    c.marker(*yv)
    c.text(xv[0], xv[1], "x", screen_offset=(8, -8))
    c.text(yv[0], yv[1], "y", screen_offset=(8, -8))
    c.label(f"limit line: deformed curve at p={p} and sampled limit set")
    return c.render()


def figure_unit_square(theta=None) -> str:
    """Unit-square boundary with the eight integer angle marks."""
    c = _Canvas(-1.7, 1.7, -1.7, 1.7)
    c.axes()
    c.rect_world(-1, -1, 1, 1)
    for k in range(8):
        z = alpha_inv(k)
        c.dot(z[0], z[1], 3.0, _TEXT)
        off = (10 if float(z[0]) >= 0 else -10, -10 if float(z[1]) >= 0 else 16)
        anchor = "start" if float(z[0]) >= 0 else "end"
        c.text(z[0], z[1], f"θ={k}", anchor=anchor, screen_offset=off)
    if theta is not None:
        z = alpha_inv(q(theta))
        c.dot(z[0], z[1], 4.2, _LIMIT)
        c.text(z[0], z[1], f"θ={theta}", color=_LIMIT, screen_offset=(8, 20))
    c.label("unit square with angle parameter marks (period 8)")
    return c.render()


def figure_pcos(lo=-4, hi=4) -> str:
    """Graph of the square cosine over [lo, hi]."""
    lo_q, hi_q = q(lo), q(hi)
    if hi_q <= lo_q:
        raise ValueError("empty theta range")
    n = CURVE_SAMPLES
    pts = []
    for i in range(n):
        t = lo_q + (hi_q - lo_q) * q(i, n - 1)
        pts.append((t, pcos(t)))
    c = _Canvas(float(lo_q) - 0.4, float(hi_q) + 0.4, -1.5, 1.5)
    c.axes()
    c.polyline(pts)
    c.label(f"square cosine over [{lo}, {hi}]")
    return c.render()


FIGURES = {
    "hull": figure_hull,
    "ball": figure_ball,
    "line": figure_line,
    "unit-square": figure_unit_square,
    "pcos": figure_pcos,
}


def render_figure(name: str, **kwargs) -> str:
    """Render a named figure to an SVG document string."""
    if name not in FIGURES:
        raise KeyError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    return FIGURES[name](**kwargs)
