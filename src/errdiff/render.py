"""Deterministic SVG pictures of sites, cells, invariant sets, and traces.

Exact coordinates are mapped to a fixed-width viewport with a 10% margin
and formatted at 12 significant digits; the text depends only on the
drawn elements, so equal inputs give byte-identical files.  Sites render
as black dots, hulls as thin outlines, bounded Voronoi cells as solid
gray rings with their recentered copies dashed, the invariant set as a
shaded polygon, and traces as a single polyline through the error points.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .geometry import Point, Region
from .voronoi import SiteSet, materialize_cell

WIDTH = 720.0

_INVARIANT_FILL = "#b9c8e4"
_INVARIANT_EDGE = "#44597f"
_CELL_GRAY = "#8a8a8a"
_HULL_BLACK = "#101010"
_TRACE_RED = "#b03a2e"


def _fmt(v: float) -> str:
    return f"{v:.12g}"


class _Frame:
    """World-to-viewport map with a 10% margin and a flipped y axis."""

    def __init__(self, xs: list[Fraction], ys: list[Fraction]):
        if not xs:
            xs, ys = [Fraction(-1), Fraction(1)], [Fraction(-1), Fraction(1)]
        lox, hix = min(xs), max(xs)
        loy, hiy = min(ys), max(ys)
        span_x = hix - lox or Fraction(2)
        span_y = hiy - loy or Fraction(2)
        lox -= span_x / 10
        hix += span_x / 10
        loy -= span_y / 10
        hiy += span_y / 10
        self.scale = WIDTH / float(hix - lox)
        self.lox = float(lox)
        self.hiy = float(hiy)
        self.width = WIDTH
        self.height = float(hiy - loy) * self.scale

    def xy(self, p: Point) -> tuple[str, str]:
        return (_fmt((float(p.x) - self.lox) * self.scale),
                _fmt((self.hiy - float(p.y)) * self.scale))

    def pts(self, ring: Sequence[Point]) -> str:
        return " ".join(f"{x},{y}" for x, y in (self.xy(p) for p in ring))


def render_svg(site_sets: Sequence[SiteSet] = (),
               invariant: Region | None = None,
               traces: Sequence[Sequence[Point]] = ()) -> str:
    """One SVG document for the given elements (empty input is fine).

    A trace is the sequence of a game's error points, as `errdiff render`
    reads them back from a trace file, and renders as the polyline
    through them.
    """
    cells: list[tuple[list[Point], list[Point]]] = []
    for S in site_sets:
        for c in S.inners:
            ring = materialize_cell(S, c).vertices
            cells.append((ring, [p - c for p in ring]))

    xs: list[Fraction] = []
    ys: list[Fraction] = []

    def reach(points):
        for p in points:
            xs.append(p.x)
            ys.append(p.y)

    for S in site_sets:
        reach(S.sites)
    for solid, shifted in cells:
        reach(solid)
        reach(shifted)
    if invariant is not None:
        reach(invariant.vertices)
    for path in traces:
        reach(path)

    frame = _Frame(xs, ys)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}" '
        f'width="{_fmt(frame.width)}" height="{_fmt(frame.height)}">',
        f'<rect width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" '
        f'fill="#ffffff"/>',
    ]
    if invariant is not None:
        out.append(f'<polygon points="{frame.pts(invariant.vertices)}" '
                   f'fill="{_INVARIANT_FILL}" fill-opacity="0.75" '
                   f'stroke="{_INVARIANT_EDGE}" stroke-width="1.4"/>')
    for solid, shifted in cells:
        out.append(f'<polygon points="{frame.pts(solid)}" fill="none" '
                   f'stroke="{_CELL_GRAY}" stroke-width="1.1"/>')
        out.append(f'<polygon points="{frame.pts(shifted)}" fill="none" '
                   f'stroke="{_CELL_GRAY}" stroke-width="1.1" '
                   f'stroke-dasharray="4 3"/>')
    for S in site_sets:
        out.append(f'<polygon points="{frame.pts(S.hull.vertices)}" '
                   f'fill="none" stroke="{_HULL_BLACK}" stroke-width="0.9"/>')
    for path in traces:
        if len(path) >= 2:
            out.append(f'<polyline points="{frame.pts(path)}" fill="none" '
                       f'stroke="{_TRACE_RED}" stroke-width="1.0"/>')
    for S in site_sets:
        for p in S.sites:
            x, y = frame.xy(p)
            out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#000000"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
