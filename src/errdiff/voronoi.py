"""Finite planar site sets, their Voronoi cells, and the projection operator.

A cell is kept as its facet walls only: the bisectors with the sites
whose walls bound it along an edge of positive length, each a reduced
integer triple (booleans.Wall), found once per site set on the sites'
integers (_facet_neighbours) by the monotone chain (geometry._hull_order)
under the one integer hull, geometry.hull_of_rings, that also builds
ch S as a Region (Region.hull_of).  Sites strictly inside the hull are the
inners (SiteSet.inners).  SiteSet.cells is one tuple of walls per site,
in S.sites order, each in the counter-clockwise order of the dual hull: a
cell is found by its site's index, never looked up by Point; so are its
neighbours and its corners, built lazily like it.  split_ring, the one
clipper, walks a ring's boundary once through the cells, a map overlay
(de Berg, Cheong, van Kreveld & Overmars, Computational Geometry, ch. 2).

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
    MultiComponent,
    Point,
    Ratios,
    Region,
    Scaled,
    _hull_order,
    _ring_locate,
    dist_sq,
    over_common_denominator,
    ratios,
    scalar_str,
)
from .booleans import Triple, Wall, _reduced


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
    def _neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Per site, the index of the site across each wall of its cell."""
        _, xs, ys = over_common_denominator(self.sites)
        return tuple(tuple(_facet_neighbours(xs, ys, i)) for i in range(len(xs)))

    @cached_property
    def cells(self) -> tuple[tuple[Wall, ...], ...]:
        """The Voronoi cell of every site, in S.sites order, as its facet
        walls in the counter-clockwise order of their dual points."""
        sites = self.sites
        return tuple(tuple(bisector(c, sites[j]) for j in js)
                     for c, js in zip(sites, self._neighbours))

    @cached_property
    def _corners(self) -> tuple[tuple[Triple | None, ...], ...]:
        """Every cell's corners, in S.sites order: where its walls k and
        k + 1 (cyclically), (A1, B1, C1) and (A2, B2, C2), meet, the reduced
        triple (C1 B2 - C2 B1, A1 C2 - A2 C1, A1 B2 - A2 B1); None where
        A1 B2 <= A2 B1, at the one gap of an unbounded cell, where they do
        not meet on it."""
        return tuple(
            tuple(_reduced(C1 * B2 - C2 * B1, A1 * C2 - A2 * C1, A1 * B2 - A2 * B1)
                  if A1 * B2 > A2 * B1 else None
                  for (A1, B1, C1), (A2, B2, C2) in zip(walls, walls[1:] + walls[:1]))
            for walls in self.cells)

    @cached_property
    def _psi(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(M, entries): the sites (x, y) / M over their common denominator,
        in S.sites order, each as (x^2 + y^2, x, y).  Its psi(p) =
        (x^2 + y^2) D - 2 M (x X + y Y) is the squared distance to
        p = (X / D, Y / D) times M^2 D, less a term that all sites share."""
        M, xs, ys = over_common_denominator(self.sites)
        return M, tuple((x * x + y * y, x, y) for x, y in zip(xs, ys))

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


def _corner_ring(corners: Sequence[Triple]) -> Scaled:
    """The ring through a bounded cell's corners, counter-clockwise, over
    the lcm of their denominators."""
    L = lcm(*[D for _, _, D in corners])
    return L, [X * (L // D) for X, _, D in corners], [Y * (L // D) for _, Y, D in corners]


def materialize_cell(S: SiteSet, c: Point) -> Region:
    """Bounded cell of an inner site, from its corners (SiteSet._corners):
    an inner site's dual points surround the origin, so its walls go once
    around it, each two consecutive walls meeting at a corner."""
    if c not in S.inners:
        raise UnboundedCell(f"{c} is not an inner site")
    return Region.from_integers(*_corner_ring(S._corners[S.sites.index(c)]))


# A vertex of a cell piece: (X, Y, D, i, k), the point (X / D, Y / D) with
# D > 0, tagged with where the walk found it: ring vertex i of X, as X's own
# (x, y, m), the crossing of ring edge i (vertex i to i + 1) with wall k, or
# the corner of walls k and k + 1 (i = -1), each reduced.  k is the first
# wall of the piece's cell whose line holds the point, -1 for none.
_Vertex = tuple[int, int, int, int, int]


def _nearest(psi: tuple[int, tuple[tuple[int, int, int], ...]],
             X: int, Y: int, D: int, dx: int, dy: int) -> int:
    """The index of the site whose cell holds p + e (dx, dy) + e^2 (-dy, dx)
    for every small enough e > 0, p = (X / D, Y / D): the least
    (psi(p), change of psi along (dx, dy), change along (-dy, dx))
    (SiteSet._psi), each change over the common factor -2 M.  Two distinct
    sites differ in the last two, so this one rule settles every tie."""
    M2 = 2 * psi[0]
    return min((n * D - M2 * (x * X + y * Y), -(x * dx + y * dy), x * dy - y * dx, i)
               for i, (n, x, y) in enumerate(psi[1]))[3]


def _first_wall(walls: Sequence[Wall], X: int, Y: int, D: int) -> int:
    """The first of the walls whose line holds (X / D, Y / D), -1 for none."""
    return next((k for k, (A, B, C) in enumerate(walls) if A * X + B * Y == C * D), -1)


def split_ring(S: SiteSet, X: Scaled) -> list[list[Scaled]]:
    """The components of X ∩ V(c) for every site c, in S.sites order, from
    one walk of the boundary of X, a simple counter-clockwise ring (m, xs,
    ys), through the diagram.

    Each boundary point goes to the cell holding it moved a little along
    its edge and less to the left (_nearest): an edge on a wall goes to the
    cell on X's side.  A wall's level A x + B y - C m is affine along an
    edge u -> v, so the edge leaves its cell where the first level f turns
    positive, at (f(v) u - f(u) v) / (f(v) - f(u)), into the site across
    that wall, or, at a corner or along a wall, into the cell _nearest
    names.  Each vertex carries its provenance and its first wall
    (_Vertex), so no plain crossing searches a cell's walls.  Each cell's
    chains, the maximal runs of the boundary in it, are closed along its
    walls (_close); a chain is marked where the walk met a zero level (a
    ring vertex on a wall, a tie of two walls, an edge along a wall).  A
    crossing never falls at an end of its edge: the walk is in the cell
    just after every point.  A cell no chain enters is a piece whole
    exactly when it is bounded and its site lies strictly inside X.  A
    ring in one cell comes back as it was given.
    """
    m, xs, ys = X
    n = len(xs)
    cells, nbrs, psi = S.cells, S._neighbours, S._psi
    first = c = _nearest(psi, xs[0], ys[0], m, xs[1] - xs[0], ys[1] - ys[0])
    walls = cells[c]
    fv = [A * xs[0] + B * ys[0] - C * m for A, B, C in walls]
    w = fv.index(0) if 0 in fv else -1
    cur: list[_Vertex] = [(xs[0], ys[0], m, 0, w)]
    marked = w >= 0
    chains: list[tuple[int, list[_Vertex], bool]] = []
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        ux, uy, vx, vy = xs[i], ys[i], xs[j], ys[j]
        fu = fv
        fv = [A * vx + B * vy - C * m for A, B, C in walls]
        while True:
            # the first wall to turn positive, at t = -f(u) / (f(v) - f(u))
            k = -1
            for q, b in enumerate(fv):
                if b > 0:
                    a = fu[q]
                    if k < 0 or -a * den < num * (b - a):
                        k, num, den, tie = q, -a, b - a, False
                    elif -a * den == num * (b - a):
                        tie = True
            if k < 0:
                break
            a, b = fu[k], fv[k]
            X_, Y_, D_ = _reduced(b * ux - a * vx, b * uy - a * vy, (b - a) * m)
            if tie or 0 in fv and any(a == 0 == b for a, b in zip(fu, fv)):
                # at a corner or the end of a wall: the point may lie on two
                # walls of either cell
                c2, met = _nearest(psi, X_, Y_, D_, vx - ux, vy - uy), True
                ke, ks = _first_wall(walls, X_, Y_, D_), _first_wall(cells[c2], X_, Y_, D_)
            else:
                # into the site across wall k, through the same wall reversed
                c2, met = nbrs[c][k], False
                ke, ks = k, nbrs[c2].index(c)
            cur.append((X_, Y_, D_, i, ke))
            chains.append((c, cur, marked or met))
            cur, marked, c = [(X_, Y_, D_, i, ks)], met, c2
            walls = cells[c]
            fu = [A * ux + B * uy - C * m for A, B, C in walls]
            fv = [A * vx + B * vy - C * m for A, B, C in walls]
        if 0 in fv:
            # v lies on the boundary of the cell: the next edge picks its own
            cur.append((vx, vy, m, j, fv.index(0)))
            marked = True
            k = j + 1 if j + 1 < n else 0
            nxt = first if j == 0 else _nearest(psi, vx, vy, m, xs[k] - vx, ys[k] - vy)
            if nxt != c:
                chains.append((c, cur, True))
                c = nxt
                walls = cells[c]
                fv = [A * vx + B * vy - C * m for A, B, C in walls]
                cur = [(vx, vy, m, j, fv.index(0))]
        else:
            cur.append((vx, vy, m, j, -1))
    pieces: list[list[Scaled]] = [[] for _ in cells]
    if not chains:
        pieces[c] = [X]
        return pieces
    # back in the cell it started in, the walk's last chain runs on into its first
    _, head, head_marked = chains[0]
    chains[0] = (c, cur + head[1:], marked or head_marked)
    by_cell: dict[int, list[tuple[list[_Vertex], bool]]] = {}
    for c, chain, mark in chains:
        by_cell.setdefault(c, []).append((chain, mark))
    for c, found in by_cell.items():
        pieces[c] = _close(cells[c], S._corners[c], found)
    M, entries = psi
    mxs, mys = [x * M for x in xs], [y * M for y in ys]
    for c, ((_, x, y), corners) in enumerate(zip(entries, S._corners)):
        if c not in by_cell and None not in corners and _ring_locate(mxs, mys, x * m, y * m) > 0:
            pieces[c] = [_corner_ring(corners)]
    return pieces


def _close(walls: Sequence[Wall], corners: Sequence[Triple | None],
           chains: list[tuple[list[_Vertex], bool]]) -> list[Scaled]:
    """One cell's components: each chain joined from its end, counter-
    clockwise along the cell's boundary, to the next chain start, through
    the corners passed (_passed), each as a ring (_ring).

    A lone chain's end joins its own start, with no sort.  Several chains
    put each end and start on wall k, its tag, at (r, A y - B x over d),
    r = k - g - 1 mod K counting the walls from the one after an unbounded
    cell's gap g (A y - B x grows counter-clockwise along the wall), sort
    them over the lcm of their denominators, and pair each end with the
    next start, cyclically around a bounded cell; MultiComponent says a
    pair is not so (a ring that is not simple and counter-clockwise).
    """
    K, N = len(walls), len(chains)
    succ = [0] * N
    if N > 1:
        gap = corners.index(None) if None in corners else -1

        def position(p: _Vertex) -> tuple[int, int, int]:
            X, Y, D, _, k = p
            A, B, _ = walls[k]
            return (k - gap - 1) % K, A * Y - B * X, D

        # chain i ends at keys[i] and starts at keys[N + i]
        pos = [position(chain[t]) for t in (-1, 0) for chain, _ in chains]
        L = lcm(*[D for _, _, D in pos])
        events = sorted(((r, a * (L // D)), i) for i, (r, a, D) in enumerate(pos))
        if gap < 0 and events[0][1] >= N:
            events = events[1:] + events[:1]
        for (_, e), (_, s) in zip(events[0::2], events[1::2]):
            if e >= N or s < N:
                raise MultiComponent("ring meets a cell boundary degenerately")
            succ[e] = s - N
    rings = []
    seen = [False] * N
    for i in range(N):
        pts: list[_Vertex] = []
        mark = False
        while not seen[i]:
            seen[i] = True
            chain, chain_mark = chains[i]
            i = succ[i]
            pts += chain + _passed(walls, corners, chain[-1], chains[i][0][0])
            mark = mark or chain_mark
        piece = _ring(pts, mark) if pts else None
        if piece is not None:
            rings.append(piece)
    return rings


def _passed(walls: Sequence[Wall], corners: Sequence[Triple | None],
            e: _Vertex, s: _Vertex) -> list[_Vertex]:
    """The corners passed counter-clockwise from e's wall to s's, all the
    way around when both lie on one wall and e lies past s there; an
    unbounded cell's gap among them raises MultiComponent (a lone chain
    of a ring that is not counter-clockwise)."""
    K, k = len(walls), e[4]
    n = (s[4] - k) % K
    if not n:
        A, B, _ = walls[k]
        if (A * e[1] - B * e[0]) * s[2] > (A * s[1] - B * s[0]) * e[2]:
            n = K
    ks = [(k + r) % K for r in range(n)]
    if any(corners[q] is None for q in ks):
        raise MultiComponent("ring meets a cell boundary degenerately")
    return [(*corners[q], -1, q) for q in ks]


def _ring(pts: list[_Vertex], marked: bool) -> Scaled | None:
    """A piece's vertices as a ring over the lcm of their reduced
    denominators; None when fewer than three are left.

    Only a marked piece (split_ring) can hold a vertex to drop: elsewhere a
    crossing lies inside its edge and inside its wall's facet, so neither
    it nor a corner or ring vertex repeats a neighbour or lines up with two.
    """
    L = lcm(*[D for _, _, D, _, _ in pts])
    xs = [X * (L // D) for X, _, D, _, _ in pts]
    ys = [Y * (L // D) for _, Y, D, _, _ in pts]
    if marked:
        # drop each vertex on a wall line while it repeats a neighbour or is
        # collinear with its two, also where the boundary doubles back, and
        # look again from its predecessor (_canonical_order)
        keep = list(range(len(xs)))
        i = 0
        while i < len(keep) and len(keep) >= 3:
            n = len(keep)
            b = keep[i]
            if pts[b][4] >= 0:
                a, c = keep[i - 1], keep[(i + 1) % n]
                ax, ay = xs[a], ys[a]
                if (xs[b] - ax) * (ys[c] - ay) == (ys[b] - ay) * (xs[c] - ax):
                    keep.pop(i)
                    i = 0 if i == n - 1 else max(i - 1, 0)
                    continue
            i += 1
        if len(keep) < 3:
            return None
        xs, ys = [xs[i] for i in keep], [ys[i] for i in keep]
    g = gcd(L, *xs, *ys)
    return L // g, [x // g for x in xs], [y // g for y in ys]


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
