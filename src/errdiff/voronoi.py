"""Finite planar site sets, their Voronoi cells, and the projection operator.

A cell is kept as its facet walls only: the bisectors with the sites
whose walls bound it along an edge of positive length, each a reduced
integer triple (booleans.Wall), found once per site set on the sites'
integers (_facet_neighbours) by the monotone chain (geometry._hull_order)
under the one integer hull, geometry.hull_of_rings, that also builds
ch S as a Region (Region.hull_of).  This module clips nothing:
operators.cell_pieces cuts a ring by each cell's walls into integer rings
in cut order (booleans.clip_components).  Sites strictly inside the hull
are the inners (SiteSet.inners).  SiteSet.cells is one tuple of walls per
site, in S.sites order, each in the counter-clockwise order of the dual
hull: a cell is found by its site's index, never looked up by Point.  An
inner site's cell is bounded, and materialize_cell builds it from those
walls alone: each two consecutive walls meet at one of its vertices.

project_ratios compares squared distances as integers: the sites are
cached in key order over their common denominator, so one integer per
site decides the nearest, and the point and the answer are Ratios.
nearest_sites lists every site tied for nearest to a Point, in S.sites
order: the point seeds of p and P and the reachability oracle read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Sequence

from .geometry import (
    GeometryError,
    Point,
    Ratios,
    Region,
    _hull_order,
    dist_sq,
    over_common_denominator,
    ratios,
    scalar_str,
)
from .booleans import Wall


class VoronoiError(GeometryError):
    pass


class CoincidentSites(VoronoiError):
    pass


class UnboundedCell(VoronoiError):
    pass


def bisector(c: Point, c2: Point) -> Wall:
    """The wall of points at least as close to c as to c2.

    Over the pair's common denominator m, with c = (x, y) / m and
    c2 = (x2, y2) / m, it is 2 m (x2 - x, y2 - y) . p <= |c2 m|^2 - |c m|^2,
    divided by the gcd of its three integers.
    """
    if c == c2:
        raise CoincidentSites(f"identical sites {c}")
    m, (x, x2), (y, y2) = over_common_denominator((c, c2))
    A, B, C = 2 * m * (x2 - x), 2 * m * (y2 - y), x2 * x2 + y2 * y2 - x * x - y * y
    g = gcd(A, B, C)
    return A // g, B // g, C // g


@dataclass(frozen=True)
class SiteSet:
    """Distinct planar sites with a positive-area convex hull."""

    sites: tuple[Point, ...]
    id: str = ""

    def __post_init__(self):
        if not self.sites:
            raise VoronoiError("empty site set")
        seen = set()
        for s in self.sites:
            if s.key() in seen:
                raise CoincidentSites(f"duplicate site {s}")
            seen.add(s.key())
        self.hull  # force validation; collinear sites raise DegenerateHull

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.sites)

    @cached_property
    def hull(self) -> Region:
        return Region.hull_of(self.sites)

    @cached_property
    def inners(self) -> tuple[Point, ...]:
        return tuple(s for s in self.sites if self.hull.locate(s) == 1)

    @cached_property
    def cells(self) -> tuple[tuple[Wall, ...], ...]:
        """The Voronoi cell of every site, in S.sites order, as its facet
        walls in the counter-clockwise order of their dual points."""
        sites = self.sites
        _, xs, ys = over_common_denominator(sites)
        return tuple(tuple(bisector(c, sites[j]) for j in _facet_neighbours(xs, ys, i))
                     for i, c in enumerate(sites))

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, int, int, Ratios], ...]]:
        """(m, entries): each site s, in key order, as (|s|^2 m^2, s.x m,
        s.y m, s as Ratios) over the common denominator m."""
        ordered = sorted(self.sites, key=Point.key)
        m, xs, ys = over_common_denominator(ordered)
        return m, tuple((x * x + y * y, x, y, ratios(s))
                        for x, y, s in zip(xs, ys, ordered))


def _facet_neighbours(xs: Sequence[int], ys: Sequence[int], i: int) -> list[int]:
    """Indices j of the sites whose bisector with site i bounds its cell
    along an edge of positive length, in the counter-clockwise order of
    their dual points; the sites are (xs, ys) over a common denominator.

    With v = s_j - s_i, the wall is (x - s_i) . v / |v|^2 <= 1/2, so by
    polar duality it is a facet of the cell exactly when the dual point
    v / |v|^2 is a vertex of conv({0} and every dual point).  A dual point
    on a hull edge but not at a vertex is a wall that meets the cell in one
    point only; one inside the hull misses the cell.  The dual points go
    over the lcm L of the |v|^2 (the common denominator of the sites
    scales them all alike), and the strict hull of those integer points
    and the origin (geometry._hull_order) keeps the vertices only, in its
    counter-clockwise order.
    """
    cx, cy = xs[i], ys[i]
    js = [j for j in range(len(xs)) if j != i]
    vs = [(xs[j] - cx, ys[j] - cy) for j in js]
    norms = [vx * vx + vy * vy for vx, vy in vs]
    L = lcm(*norms)
    dxs = [vx * (L // nv) for (vx, _), nv in zip(vs, norms)] + [0]
    dys = [vy * (L // nv) for (_, vy), nv in zip(vs, norms)] + [0]
    return [js[k] for k in _hull_order(dxs, dys) if k < len(js)]


def project_ratios(S: SiteSet, q: Ratios) -> Ratios:
    """A squared-distance-minimizing site of S to the point q, both as
    Ratios; ties go to the smallest site.

    |q - s|^2 = |q|^2 - 2 q.s + |s|^2; times m^2 d for d the product of
    q's denominators, and less the common |q|^2 term, it is the integer
    |s m|^2 d - 2 m d (q . s m).  The sites come in key order and min
    keeps the first of equal values, so ties go to the smallest.
    """
    m, entries = S._scaled
    xn, xd, yn, yd = q
    d = xd * yd
    a, b = 2 * m * xn * yd, 2 * m * yn * xd
    return min(entries, key=lambda e: e[0] * d - a * e[1] - b * e[2])[3]


def nearest_sites(S: SiteSet, p: Point) -> list[Point]:
    """Every site of S tied for nearest to p, in S.sites order."""
    d = [dist_sq(p, c) for c in S.sites]
    best = min(d)
    return [c for c, x in zip(S.sites, d) if x == best]


def materialize_cell(S: SiteSet, c: Point) -> Region:
    """Bounded cell of an inner site, from its facet walls.

    An inner site's dual points surround the origin, so its cell's walls
    (SiteSet.cells) go once around it, and each two consecutive walls
    (A1, B1, C1), (A2, B2, C2) meet at the vertex
    (C1 B2 - C2 B1, A1 C2 - A2 C1) / (A1 B2 - A2 B1), the denominator
    positive.  The ring goes over the lcm of those denominators.
    """
    if c not in S.inners:
        raise UnboundedCell(f"{c} is not an inner site")
    walls = S.cells[S.sites.index(c)]
    corners = [(C1 * B2 - C2 * B1, A1 * C2 - A2 * C1, A1 * B2 - A2 * B1)
               for (A1, B1, C1), (A2, B2, C2) in zip(walls, walls[1:] + walls[:1])]
    m = lcm(*[d for _, _, d in corners])
    return Region.from_integers(m, [x * (m // d) for x, _, d in corners],
                                [y * (m // d) for _, y, d in corners])


def inner_cell_diameter_sq(S: SiteSet, c: Point) -> Fraction:
    return materialize_cell(S, c).diameter_sq


def hull_edge_normals(S: SiteSet) -> list[tuple[int, int]]:
    """Outward edge normals of ch S as reduced integer direction pairs."""
    _, xs, ys = S.hull._scaled
    n = len(xs)
    out = []
    for i in range(n):
        j = (i + 1) % n
        nx, ny = ys[j] - ys[i], xs[i] - xs[j]
        g = gcd(nx, ny)
        out.append((nx // g, ny // g))
    return out


@dataclass(frozen=True)
class AssumptionReport:
    """Uniform-boundedness data for a finite family of site sets."""

    max_hull_diameter_sq: Fraction
    normals: tuple[tuple[int, int], ...]
    max_inner_cell_diameter_sq: Fraction | None

    @property
    def normal_count(self) -> int:
        return len(self.normals)

    def as_dict(self) -> dict:
        return {
            "max_hull_diameter_sq": scalar_str(self.max_hull_diameter_sq),
            "normal_count": self.normal_count,
            "normals": [list(n) for n in self.normals],
            "max_inner_cell_diameter_sq":
                None if self.max_inner_cell_diameter_sq is None
                else scalar_str(self.max_inner_cell_diameter_sq),
        }


def assumption_report(site_sets: Sequence[SiteSet]) -> AssumptionReport:
    if not site_sets:
        raise VoronoiError("empty collection")
    max_hull = max(S.hull.diameter_sq for S in site_sets)
    normals = sorted({n for S in site_sets for n in hull_edge_normals(S)})
    inner_diams = [inner_cell_diameter_sq(S, c)
                   for S in site_sets for c in S.inners]
    return AssumptionReport(
        max_hull_diameter_sq=max_hull,
        normals=tuple(normals),
        max_inner_cell_diameter_sq=max(inner_diams) if inner_diams else None,
    )
