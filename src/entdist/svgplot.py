"""Hand-rolled SVG scatter plots: a quarter-disk polar panel for the 2-D
classification figure and a plain Cartesian panel for the clustering and
nearest-neighbor demos.  Decision boundaries are traced as the zero
contour of D_A - D_B on a grid, which renders straight bisectors and
piecewise nearest-neighbor boundaries alike.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "contour_segments",
    "polar_scatter_svg",
    "cartesian_scatter_svg",
]

_CSS_COLORS = {"red", "blue", "green", "orange", "purple", "brown", "gray", "black"}
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]

_POINT_RADIUS = 5.0
_CROSS_ARM = 7.0
_FONT = 'font-family="sans-serif" font-size="11"'
_GRID = 160  # contour grid cells per axis
# the diverging fill's ends and middle
_BLUE, _WHITE, _RED = np.array([33, 102, 172]), np.array([247, 247, 247]), np.array([178, 24, 43])


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def _diverging_fills(t: np.ndarray) -> list[str]:
    """Blue (-1) through white (0) to red (+1) for each of t, clipped outside
    [-1, 1]: channel a + (b - a) * s, rounded half to even."""
    t = np.clip(t, -1.0, 1.0)[:, None]
    below = t < 0
    lo, hi = np.where(below, _BLUE, _WHITE), np.where(below, _WHITE, _RED)
    rgb = np.rint(lo + (hi - lo) * np.where(below, t + 1.0, t)).astype(int)
    # each distinct colour is formatted once, as its packed 0xRRGGBB
    colors, which = np.unique(rgb @ [65536, 256, 1], return_inverse=True)
    return np.array(list(map("#{:06x}".format, colors.tolist())), dtype=object)[which].tolist()


def _label_colors(labels) -> dict:
    """One figure's label -> color map: a label that names a CSS color gets it,
    and every label's place among them all, sorted, picks its palette slot."""
    ordered = sorted({str(x) for x in labels})
    return {text: text if text in _CSS_COLORS else _PALETTE[i % len(_PALETTE)]
            for i, text in enumerate(ordered)}


def contour_segments(f, lim):
    """Zero-contour line segments of f(x, y) via marching squares on the square window lim x lim.

    f is called once, with the whole grid as two arrays; the crossings
    interpolate the corner values of the cells whose corners differ in sign.
    """
    lo, hi = lim
    coords = lo + (hi - lo) * np.arange(_GRID + 1) / _GRID
    grid = np.asarray(f(*np.meshgrid(coords, coords)), dtype=float)
    below = grid < 0.0
    # only a cell whose corners differ in sign holds a crossing; visit those row by row
    mixed = ((below[:-1, :-1] != below[:-1, 1:]) | (below[:-1, :-1] != below[1:, 1:])
             | (below[:-1, :-1] != below[1:, :-1]))
    cells = np.nonzero(mixed)
    # each crossing cell's corner values, counterclockwise from its lower left
    values = [grid[cells[0] + dj, cells[1] + di].tolist()
              for dj, di in ((0, 0), (0, 1), (1, 1), (1, 0))]
    xs = ys = coords.tolist()
    segments = []
    for j, i, *f in zip(*(axis.tolist() for axis in cells), *values):
        corners = [(xs[i], ys[j], f[0]), (xs[i + 1], ys[j], f[1]),
                   (xs[i + 1], ys[j + 1], f[2]), (xs[i], ys[j + 1], f[3])]
        crossings = []
        for k in range(4):
            xa, ya, fa = corners[k]
            xb, yb, fb = corners[(k + 1) % 4]
            if (fa < 0.0) != (fb < 0.0):
                t = fa / (fa - fb)
                crossings.append((_lerp(xa, xb, t), _lerp(ya, yb, t)))
        if len(crossings) == 2:
            segments.append((crossings[0], crossings[1]))
        elif len(crossings) == 4:
            # saddle cell: the center joins the two corners of its own sign,
            # so the contour cuts off the other two.  Crossing k lies on the
            # edge from corner k to corner k + 1.
            center = sum(c[2] for c in corners) / 4.0
            if (corners[0][2] < 0.0) != (center < 0.0):  # cut off corners 0 and 2
                segments.append((crossings[0], crossings[3]))
                segments.append((crossings[1], crossings[2]))
            else:  # cut off corners 1 and 3
                segments.append((crossings[0], crossings[1]))
                segments.append((crossings[2], crossings[3]))
    return segments


class _Panel:
    """Maps the square data window lim x lim to a pixel box (y axis flipped)."""

    def __init__(self, px: float, py: float, size: float, lim):
        self.px, self.py, self.size, self.lim = px, py, size, lim

    def x(self, x: float) -> float:
        lo, hi = self.lim
        return self.px + (x - lo) / (hi - lo) * self.size

    def y(self, y: float) -> float:
        lo, hi = self.lim
        return self.py + self.size - (y - lo) / (hi - lo) * self.size

    def segments(self, segs, dash=None) -> list[str]:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return [
            f'<line x1="{_fmt(self.x(ax))}" y1="{_fmt(self.y(ay))}" '
            f'x2="{_fmt(self.x(bx))}" y2="{_fmt(self.y(by))}" '
            f'stroke="#888888" stroke-width="1.8"{dash_attr}/>'
            for (ax, ay), (bx, by) in segs
        ]

    def points(self, xs: np.ndarray, ys: np.ndarray, fills, edges) -> list[str]:
        """One circle per point, its pixel coordinates computed for all points at once."""
        return [
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{_POINT_RADIUS}" '
            f'fill="{fill}" stroke="{edge}" stroke-width="1.6"/>'
            for cx, cy, fill, edge in zip(self.x(xs).tolist(), self.y(ys).tolist(), fills, edges)
        ]

    def cross(self, x: float, y: float, color: str) -> str:
        cx, cy, arm = self.x(x), self.y(y), _CROSS_ARM
        return (
            f'<path d="M {_fmt(cx - arm)} {_fmt(cy)} H {_fmt(cx + arm)} '
            f'M {_fmt(cx)} {_fmt(cy - arm)} V {_fmt(cy + arm)}" '
            f'stroke="{color}" stroke-width="3" fill="none"/>'
        )

    def text(self, x: float, y: float, s: str, dy=0.0) -> str:
        return (
            f'<text x="{_fmt(self.x(x))}" y="{_fmt(self.y(y) + dy)}" '
            f'text-anchor="middle" {_FONT}>{s}</text>'
        )


def _title(x: float, top: float, title: str) -> str:
    """A bold title centered on x, 18 px above a panel's top edge."""
    return (f'<text x="{_fmt(x)}" y="{_fmt(top - 18.0)}" text-anchor="middle" {_FONT} '
            f'font-weight="bold">{title}</text>')


def _document(width: float, height: float, body: list[str], metadata: dict) -> list[str]:
    """The document's lines, without their newlines: the writer joins them a block at a time."""
    # JSON escapes keep the desc well-formed XML (no markup, no "]]>") and still the same JSON
    desc = json.dumps(metadata, sort_keys=True)
    desc = desc.replace("<", "\\u003c").replace("&", "\\u0026").replace(">", "\\u003e")
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f"<desc>{desc}</desc>",
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        *body,
        "</svg>",
    ]


def _polar_grid(panel: _Panel, r_max: float) -> list[str]:
    out = [f'<g stroke="#dddddd" fill="none" stroke-width="1">']
    ox, oy = panel.x(0.0), panel.y(0.0)
    r_step = 0.5 if r_max <= 4 else 1.0
    r = r_step
    while r <= r_max + 1e-9:
        px = r / r_max * panel.size
        out.append(
            f'<path d="M {_fmt(ox + px)} {_fmt(oy)} A {_fmt(px)} {_fmt(px)} 0 0 0 '
            f'{_fmt(ox)} {_fmt(oy - px)}"/>'
        )
        r += r_step
    for deg in (15, 30, 45, 60, 75):
        t = math.radians(deg)
        out.append(
            f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" '
            f'x2="{_fmt(panel.x(r_max * math.cos(t)))}" y2="{_fmt(panel.y(r_max * math.sin(t)))}"/>'
        )
    out.append("</g>")
    # radial tick labels along the horizontal axis, angle labels on the arc
    r = r_step
    while r <= r_max + 1e-9:
        out.append(panel.text(r, 0.0, f"{r:g}", dy=14.0))
        r += r_step
    for deg in (0, 30, 60, 90):
        t = math.radians(deg)
        rr = r_max * 1.05
        out.append(panel.text(rr * math.cos(t), rr * math.sin(t), f"{deg}&#176;"))
    return out


def polar_scatter_svg(xs, ys, panels, references, boundary, fill_scale: float, r_max: float,
                      metadata: dict) -> list[str]:
    """The lines of an SVG of quarter-disk panels side by side, one per (title,
    fill_values, edge_labels).

    Each panel draws point i at (xs[i], ys[i]) with fill fill_values[i] /
    fill_scale on the diverging map and the colour of edge_labels[i], one of
    the references' labels (arrays for xs, ys and the fill values).  Every
    panel shows the references [(x, y, label)] as crosses and the boundary
    (segment list).
    """
    panel_size, margin = 360.0, 55.0
    width = margin + len(panels) * (panel_size + margin)
    height = panel_size + 2 * margin
    colors = _label_colors(label for _, _, label in references)
    body = []
    for idx, (title, values, edge_labels) in enumerate(panels):
        panel = _Panel(margin + idx * (panel_size + margin), margin, panel_size, (0.0, r_max))
        body.extend(_polar_grid(panel, r_max))
        body.extend(panel.segments(boundary))
        body.extend(panel.points(xs, ys, _diverging_fills(values / fill_scale),
                                 map(colors.__getitem__, edge_labels)))
        for x, y, label in references:
            body.append(panel.cross(x, y, colors[label]))
        body.append(_title(panel.px + panel.size / 2.0, margin, title))
    return _document(width, height, body, metadata)


def cartesian_scatter_svg(points, labels, lim, references, boundary, names, title: str,
                          metadata: dict) -> list[str]:
    """The lines of an SVG scatter of labeled 2-D points ((n, 2) array) in the square
    window lim x lim, with reference crosses, a dashed boundary (segment list) and the
    first ``len(names)`` points named."""
    panel_size, margin = 420.0, 50.0
    width = height = panel_size + 2 * margin
    panel = _Panel(margin, margin, panel_size, lim)
    colors = _label_colors([*labels, *(label for _, _, label in references)])
    body = [
        f'<rect x="{margin:g}" y="{margin:g}" width="{panel_size:g}" height="{panel_size:g}" '
        f'fill="none" stroke="#bbbbbb"/>'
    ]
    ticks = _ticks(*lim)
    body.extend(panel.text(t, lim[0], f"{t:g}", dy=16.0) for t in ticks)
    body.extend(f'<text x="{_fmt(margin - 8.0)}" y="{_fmt(panel.y(t) + 4.0)}" '
                f'text-anchor="end" {_FONT}>{t:g}</text>' for t in ticks)
    body.extend(panel.segments(boundary, dash="6 4"))
    xs, ys = points.T
    circles = panel.points(xs, ys, [colors[str(label)] for label in labels],
                           ["#333333"] * len(points))
    for i, circle in enumerate(circles):
        body.append(circle)
        if i < len(names):
            body.append(panel.text(*points[i], str(names[i]), dy=-10.0))
    for x, y, label in references:
        body.append(panel.cross(x, y, colors[str(label)]))
    body.append(_title(width / 2.0, margin, title))
    return _document(width, height, body, metadata)


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round-numbered ticks from lo to hi."""
    n = 5
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    # tick k is k * step: adding step to a tick would stop moving once step is below half its ulp
    return [round(k * step, 10)
            for k in range(math.ceil(lo / step), math.floor((hi + 1e-9) / step) + 1)]
