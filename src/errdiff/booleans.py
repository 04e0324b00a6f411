"""Exact union and containment for simple polygons, on integers, and the
wall and point triples that voronoi's walk shares with them.

subset_witness and union_rings take polygons, put their rings over one
common denominator and share one edge splitter, _pieces: each edge is
cut at its contacts with the other rings' edges, each a reduced parameter
along it, and each piece's midpoint is a reduced integer triple, located
by geometry's integer point location.  subset_witness checks a's
vertices, then those midpoints.  union_rings keeps or drops the pieces by
their midpoints and stitches them back into cycles, each a canonical
Region on integers; a boundary that touches itself or leaves a hole
raises DisconnectedUnion.  No Fraction is compared or added: a Point is
built only for a returned witness.  union_one_region demands exactly one
cycle.  It is the operators' general union, for parts that share no
center: p's general route unites its hull sweeps there, and the p family
its members' images where their radial envelope fails
(starunion.cycle_envelope is every other union).  Results are
regularized: zero-area slivers and whiskers vanish.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Sequence

from .geometry import (
    DisconnectedUnion,
    Point,
    Region,
    Scaled,
    _canonical_order,
    ratios_in_ring,
)

# A wall (A, B, C): the closed half-plane A x + B y <= C, with (A, B) != 0
# and gcd(A, B, C) == 1, so each half-plane has one value
Wall = tuple[int, int, int]


# ---------------------------------------------------------------------------
# containment and union, on the rings of a call over one denominator L

# A point (X / d, Y / d) in units of 1 / L, reduced, with d > 0
Triple = tuple[int, int, int]
# An edge (ax, ay, bx, by, xmin, xmax, ymin, ymax): its ends and its box
_Edge = tuple[int, int, int, int, int, int, int, int]


class _Boundary:
    """A ring over the call's denominator: its integer vertices, its edges
    and its box (xmin, xmax, ymin, ymax)."""

    __slots__ = ("xs", "ys", "edges", "box")

    def __init__(self, xs: list[int], ys: list[int]):
        self.xs, self.ys = xs, ys
        self.edges: list[_Edge] = []
        n = len(xs)
        for i in range(n):
            j = i + 1 if i + 1 < n else 0
            ax, ay, bx, by = xs[i], ys[i], xs[j], ys[j]
            self.edges.append((ax, ay, bx, by, min(ax, bx), max(ax, bx),
                               min(ay, by), max(ay, by)))
        self.box = (min(xs), max(xs), min(ys), max(ys))

    def locate(self, X: int, Y: int, d: int) -> int:
        """+1 strictly inside, 0 on the boundary, -1 outside, for (X / d, Y / d)."""
        xmin, xmax, ymin, ymax = self.box
        if X < xmin * d or X > xmax * d or Y < ymin * d or Y > ymax * d:
            return -1
        return ratios_in_ring((1, self.xs, self.ys), (X, d, Y, d))

    def side_along(self, X: int, Y: int, d: int, dx: int, dy: int) -> int:
        """+1 when the first edge holding (X / d, Y / d) runs along (dx, dy),
        -1 when it runs against it, 0 when no edge holds the point."""
        for ax, ay, bx, by, xmin, xmax, ymin, ymax in self.edges:
            if (xmin * d <= X <= xmax * d and ymin * d <= Y <= ymax * d
                    and (bx - ax) * (Y - ay * d) == (by - ay) * (X - ax * d)):
                return 1 if (bx - ax) * dx + (by - ay) * dy > 0 else -1
        return 0


def _boundaries(polys: Sequence[Region]) -> tuple[int, list[_Boundary]]:
    """L, the lcm of the polygons' own common denominators, and their rings
    over L."""
    L = lcm(*[P.m for P in polys])
    return L, [_Boundary([x * (L // P.m) for x in P.xs], [y * (L // P.m) for y in P.ys])
               for P in polys]


def _apart(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether two boxes (xmin, xmax, ymin, ymax) share no point."""
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


def _reduced(X: int, Y: int, d: int) -> Triple:
    g = gcd(X, Y, d)
    return X // g, Y // g, d // g


def _pieces(e: _Edge, others: Sequence[_Boundary]) -> list[tuple[Triple, Triple, Triple]]:
    """The pieces (p, q, midpoint) of edge e split at every contact with the
    others' edges, in order from its start u to its end v.

    A contact is a reduced parameter t = n / d in [0, 1] along u -> v: where
    a non-parallel edge q1 -> q2 meets it, by Cramer's rule, or an end of a
    collinear edge projected onto it.  Edges whose boxes are apart from e's
    are skipped.  The parameters are sorted over the lcm of their
    denominators, and each becomes the point u + t (v - u).
    """
    ux, uy, vx, vy, xmin, xmax, ymin, ymax = e
    dx, dy = vx - ux, vy - uy
    if not (dx or dy):
        return []
    ts = {(0, 1), (1, 1)}
    for other in others:
        if _apart(e[4:], other.box):
            continue
        for q1x, q1y, q2x, q2y, qxmin, qxmax, qymin, qymax in other.edges:
            if qxmax < xmin or xmax < qxmin or qymax < ymin or ymax < qymin:
                continue
            ex, ey = q2x - q1x, q2y - q1y
            wx, wy = q1x - ux, q1y - uy
            den = dx * ey - dy * ex
            if den:
                tn = wx * ey - wy * ex
                sn = wx * dy - wy * dx
                if den < 0:
                    den, tn, sn = -den, -tn, -sn
                if 0 <= tn <= den and 0 <= sn <= den:
                    g = gcd(tn, den)
                    ts.add((tn // g, den // g))
            elif wx * dy == wy * dx:
                dd = dx * dx + dy * dy
                for px, py in ((wx, wy), (q2x - ux, q2y - uy)):
                    tn = px * dx + py * dy
                    if 0 <= tn <= dd:
                        g = gcd(tn, dd)
                        ts.add((tn // g, dd // g))
    K = lcm(*[d for _, d in ts])
    pts = [_reduced(ux * d + n * dx, uy * d + n * dy, d)
           for n, d in sorted(ts, key=lambda t: t[0] * (K // t[1]))]
    return [(p, q, _reduced(p[0] * q[2] + q[0] * p[2], p[1] * q[2] + q[1] * p[2],
                            2 * p[2] * q[2]))
            for p, q in zip(pts, pts[1:])]


def subset_witness(a: Region, b: Region) -> Point | None:
    """A point of a outside b, or None when a is contained.

    Exact for simple polygons, where containment reduces to boundary
    containment: an interior point of a outside b would connect to infinity
    through the complement of b, and that path crosses the boundary of a at
    a point outside b. It suffices to check the vertices of a and one
    interior point of every piece of a's edges split at contacts with b's
    boundary: the first vertex outside is returned, else the first such
    midpoint in edge order, the only Point built.
    """
    L, (A, B) = _boundaries((a, b))
    for x, y in zip(A.xs, A.ys):
        if B.locate(x, y, 1) < 0:
            return Point(Fraction(x, L), Fraction(y, L))
    for e in A.edges:
        for _, _, (X, Y, d) in _pieces(e, (B,)):
            if B.locate(X, Y, d) < 0:
                return Point(Fraction(X, d * L), Fraction(Y, d * L))
    return None


def subset(a: Region, b: Region) -> bool:
    """Exact containment of a in b (closed sets)."""
    return subset_witness(a, b) is None


def union_rings(polys: Sequence[Region]) -> list[Region]:
    """Union of polygons with simple CCW rings, as its canonical boundary
    cycles.

    A piece of an edge split at the other rings is dropped when its
    midpoint lies strictly inside another ring, or on another ring's
    collinear edge that runs the opposite way or, for a lower ring index,
    the same way.  A boundary that touches itself raises DisconnectedUnion,
    and so does a hole: the engine has no polygon-with-holes representation.
    """
    L, bounds = _boundaries(polys)
    kept: list[tuple[Triple, Triple]] = []
    for i, I in enumerate(bounds):
        near = [(j, J) for j, J in enumerate(bounds)
                if j != i and not _apart(I.box, J.box)]
        others = [J for _, J in near]
        for e in I.edges:
            for p, q, (X, Y, d) in _pieces(e, others):
                for j, J in near:
                    loc = J.locate(X, Y, d)
                    if loc > 0:
                        break
                    if loc == 0:
                        side = J.side_along(X, Y, d, e[2] - e[0], e[3] - e[1])
                        # opposite interiors: covered both sides; a duplicate:
                        # the lowest index wins
                        if side < 0 or (side > 0 and j < i):
                            break
                else:
                    kept.append((p, q))
    return _stitch(kept, L)


def _lex_cmp(p: Triple, q: Triple) -> int:
    c = p[0] * q[2] - q[0] * p[2] or p[1] * q[2] - q[1] * p[2]
    return (c > 0) - (c < 0)


def _stitch(kept: list[tuple[Triple, Triple]], L: int) -> list[Region]:
    outgoing: dict[Triple, Triple] = {}
    for p, q in kept:
        if p in outgoing:
            raise DisconnectedUnion("union boundary touches itself")
        outgoing[p] = q

    # every vertex starts at most one piece, so a start names it; the starts
    # are taken in lexicographic order
    used: set[Triple] = set()
    cycles: list[Scaled] = []
    for start in sorted(outgoing, key=cmp_to_key(_lex_cmp)):
        if start in used:
            continue
        path = [start]
        while path[-1] in outgoing and path[-1] not in used:
            used.add(path[-1])
            path.append(outgoing[path[-1]])
        if path[0] != path[-1]:
            raise DisconnectedUnion("union boundary has a dangling chain")
        path.pop()
        m = lcm(*[d for _, _, d in path])
        xs = [x * (m // d) for x, _, d in path]
        ys = [y * (m // d) for _, y, d in path]
        order = _canonical_order(xs, ys)
        if order is not None:
            cycles.append((m, [xs[i] for i in order], [ys[i] for i in order]))
    # canonical rings are all CCW, so a hole shows up as a cycle nested inside
    # another; filtered vertices of genuine sibling lobes never lie strictly
    # inside a neighbor.  Cycle i is over mi and cycle j over mj.
    for i, (mi, ixs, iys) in enumerate(cycles):
        for j, ring in enumerate(cycles):
            if i == j:
                continue
            if any(ratios_in_ring(ring, (x, mi, y, mi)) > 0 for x, y in zip(ixs, iys)):
                raise DisconnectedUnion("union produced a hole")
    # a cycle that passed the touch and hole tests is simple and canonical
    return [Region(m * L, xs, ys) for m, xs, ys in cycles]


def union_one_region(polys: Sequence[Region]) -> Region:
    """Union of polygons with simple CCW rings that must be exactly one
    cycle; raises DisconnectedUnion otherwise."""
    cycles = union_rings(polys)
    if len(cycles) != 1:
        raise DisconnectedUnion(f"union has {len(cycles)} components")
    return cycles[0]
