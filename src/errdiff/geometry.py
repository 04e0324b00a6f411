"""Exact planar primitives over rational coordinates.

Every coordinate is a fractions.Fraction and every predicate is decided by
integer sign computations, so there is no floating point and no tolerance
anywhere in this module.  No predicate takes Points: each runs on integers
over a common denominator.

A polygon's value is its ring over one common denominator: the integer
tuples (m, xs, ys), vertex i at (xs[i] / m, ys[i] / m), in lowest terms,
so equal rings have equal fields (equal_canonical).  Its vertices are a
cached view of Points, for artifacts, rendering and games.  A parsed
Point holds the Fractions of parse_scalar as they are.  Points come in
through over_common_denominator: Region.from_ring hands a ring to
Region.from_integers, which checks it (_canonical_order, is_simple_ring),
and Region.hull_of hands points to hull_of_rings, the one integer hull:
the monotone chain _hull_order over the vertices of rings given on
integers, which the operators call on their pieces and a site set on its
own integers (voronoi.SiteSet).  A stitch or a convex Minkowski sum,
which hold a canonical simple ring on integers, and a cell piece, rotated
by _canonical_order, build the polygon directly.

A point can also go as Ratios (xn, xd, yn, yd), the reduced pairs that
its two Fractions hold, without the objects; the games run on them.

The ring predicates (is_simple_ring, is_convex_ring, point_in_ring,
star_kernel_contains, ring_area2, diameter_sq_of) take a Scaled ring
(m, xs, ys).  Against a query point, the ring's x axis is scaled by the
point's x denominator and its y axis by its y denominator, and the point
by m, which keeps every comparison and every orientation sign.
ratios_in_ring, which point_in_ring calls, and star_kernel_contains
scale each vertex as their walk reaches it and copy no ring, so a query
costs no more than the edges it reads.  ratios_in_ring is the one
crossing rule: errdiff.booleans, errdiff.voronoi and errdiff.operators
call it too, with a ring and a point over two denominators each given
as a positive per-axis scale, so none of them scales a ring either.

Region is the one polygon type: a simple polygon, which is its ring and
nothing else, so two Regions are equal exactly when their rings are.  A
convex hull is a role a Region plays, not a type of its own.  A Region
answers locate with point_in_ring on its ring, and holds, membership of
a point given as Ratios, with ratios_in_ring.
Clipping and union live in errdiff.booleans and errdiff.starunion, and
Minkowski sums in errdiff.operators; project_convex_ring decides the
nearest point of a convex ring on the integers of the ring and the query
point's Ratios, first by ratios_in_ring, which returns a point the
polygon holds at once, and else by nearest_on_boundary's edge feet.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational, Real
from typing import Iterable, Sequence

Scalar = Fraction

ZERO = Fraction(0)


def parse_scalar(value: str | int) -> Fraction:
    """Parse an exact rational literal: integer, 'a/b', or exact decimal,
    with no '_' in it, which Fraction reads from Python 3.11 on only."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and "_" not in value:
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational literal: {value!r}")


def scalar_str(q: Fraction) -> str:
    """Exact text form of a rational, never a decimal approximation."""
    return str(q)


class GeometryError(Exception):
    """Base class for exact-geometry failures."""


class DegenerateHull(GeometryError):
    """Fewer than three non-collinear points."""


class DegenerateRegion(GeometryError):
    """A vertex ring with zero area."""


class NotSimple(GeometryError):
    """A vertex ring whose boundary self-intersects."""


class MultiComponent(GeometryError):
    """A clip disconnected its input; the caller assumed it could not."""


class KernelViolation(GeometryError):
    """An input lacks the star center its operator needs."""


class NotStarAtCenter(GeometryError):
    """A union part is not star-convex in the common center."""


class DisconnectedUnion(GeometryError):
    """Union parts meet only at isolated points, or not at all."""


@dataclass(frozen=True, slots=True)
class Point:
    x: Fraction
    y: Fraction

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)


ORIGIN = Point(ZERO, ZERO)


def exact(value) -> Fraction:
    """Fraction(value) for an int, a Fraction or a rational string.

    A binary floating-point value raises TypeError: Fraction(0.1) keeps
    its binary value, whose denominator is 2**55, not 1/10.
    """
    if isinstance(value, Real) and not isinstance(value, Rational):
        raise TypeError(f"inexact coordinate {value!r}: pass an int, a "
                        "Fraction or a rational string")
    return Fraction(value)


def pt(x, y) -> Point:
    """Point from any exact rational pair (ints, strings, Fractions)."""
    return Point(exact(x), exact(y))


def dist_sq(a: Point, b: Point) -> Fraction:
    d = a - b
    return d.norm_sq()


Scaled = tuple[int, Sequence[int], Sequence[int]]
Ratios = tuple[int, int, int, int]


def ratios(p: Point) -> Ratios:
    return p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator


def point_of(q: Ratios) -> Point:
    return Point(Fraction(q[0], q[1]), Fraction(q[2], q[3]))


def reduced(n: int, d: int) -> tuple[int, int]:
    """n / d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for n / d in lowest terms with d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _add_ratio(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an / ad + bn / bd in lowest terms, reduced by the gcd of the
    denominators first, as Fraction adds."""
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = gcd(t, g)
    return t // g2, s * (bd // g2)


def add_ratios(a: Ratios, b: Ratios) -> Ratios:
    return (*_add_ratio(a[0], a[1], b[0], b[1]), *_add_ratio(a[2], a[3], b[2], b[3]))


def sub_ratios(a: Ratios, b: Ratios) -> Ratios:
    return (*_add_ratio(a[0], a[1], -b[0], b[1]), *_add_ratio(a[2], a[3], -b[2], b[3]))


def vertex_ratios(scaled: Scaled, i: int) -> Ratios:
    """Vertex i of the ring (m, xs, ys) as Ratios."""
    m, xs, ys = scaled
    return (*reduced(xs[i], m), *reduced(ys[i], m))


def over_common_denominator(points: Sequence[Point]) -> Scaled:
    """(m, xs, ys) with points[i] == (xs[i] / m, ys[i] / m), where m > 0 is
    the lcm of every coordinate denominator."""
    xr = [p.x.as_integer_ratio() for p in points]
    yr = [p.y.as_integer_ratio() for p in points]
    m = lcm(*[d for _, d in xr], *[d for _, d in yr])
    return m, [n * (m // d) for n, d in xr], [n * (m // d) for n, d in yr]


def _shift(scaled: Scaled, p: Point) -> Scaled:
    """The ring moved by p, over the lcm of its m and p's denominators."""
    m, xs, ys = scaled
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.y.numerator, p.y.denominator
    M = lcm(m, xd, yd)
    k, ox, oy = M // m, xn * (M // xd), yn * (M // yd)
    return M, [x * k + ox for x in xs], [y * k + oy for y in ys]


def diameter_sq_of(scaled: Scaled) -> Fraction:
    """Largest squared distance between two points of the ring (m, xs, ys):
    the pairwise maximum on its integers, returned over m^2."""
    m, xs, ys = scaled
    best = 0
    n = len(xs)
    for i in range(n):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, n):
            dx, dy = xs[j] - xi, ys[j] - yi
            d = dx * dx + dy * dy
            if d > best:
                best = d
    return Fraction(best, m * m)


# ---------------------------------------------------------------------------
# rings (ordered vertex lists)

def _shoelace(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Twice the signed area of the integer ring (xs, ys)."""
    return sum(xs[i - 1] * ys[i] - ys[i - 1] * xs[i] for i in range(len(xs)))


def ring_area2(scaled: Scaled) -> Fraction:
    m, xs, ys = scaled
    return Fraction(_shoelace(xs, ys), m * m)


def _canonical_order(xs: Sequence[int], ys: Sequence[int]) -> list[int] | None:
    """Indices of the canonical form of the integer ring (xs, ys), or None
    when it has no area left: consecutive repeats dropped, then collinear
    vertices, turned CCW, lexicographically smallest vertex first.  A ring
    that touches itself may pass that vertex twice: it starts at the
    occurrence whose rotation is lexicographically least."""
    ring: list[int] = []
    for i in range(len(xs)):
        if not ring or xs[i] != xs[ring[-1]] or ys[i] != ys[ring[-1]]:
            ring.append(i)
    while len(ring) > 1 and xs[ring[0]] == xs[ring[-1]] and ys[ring[0]] == ys[ring[-1]]:
        ring.pop()
    # drop the first collinear vertex, then look again from its predecessor:
    # the triples before it are unchanged, except the one at 0 when the
    # last vertex goes, and the scan then starts over
    i = 0
    while i < len(ring) and len(ring) >= 3:
        n = len(ring)
        a, b, c = ring[i - 1], ring[i], ring[(i + 1) % n]
        ax, ay = xs[a], ys[a]
        if (xs[b] - ax) * (ys[c] - ay) == (ys[b] - ay) * (xs[c] - ax):
            ring.pop(i)
            i = 0 if i == n - 1 else max(i - 1, 0)
        else:
            i += 1
    if len(ring) < 3:
        return None
    a2 = _shoelace([xs[i] for i in ring], [ys[i] for i in ring])
    if a2 == 0:
        return None
    if a2 < 0:
        ring.reverse()
    pts = [(xs[i], ys[i]) for i in ring]
    low = min(pts)
    k = min((i for i, p in enumerate(pts) if p == low), key=lambda i: pts[i:] + pts[:i])
    return ring[k:] + ring[:k]


def _touch(e: tuple, f: tuple) -> bool:
    """True when the closed integer segments e and f share a point; each is
    (ax, ay, bx, by, xmin, xmax, ymin, ymax)."""
    p1x, p1y, p2x, p2y = e[0], e[1], e[2], e[3]
    q1x, q1y, q2x, q2y = f[0], f[1], f[2], f[3]
    qx, qy = q2x - q1x, q2y - q1y
    px, py = p2x - p1x, p2y - p1y
    d1 = qx * (p1y - q1y) - qy * (p1x - q1x)
    d2 = qx * (p2y - q1y) - qy * (p2x - q1x)
    d3 = px * (q1y - p1y) - py * (q1x - p1x)
    d4 = px * (q2y - p1y) - py * (q2x - p1x)
    if d1 and d2 and d3 and d4:
        return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
    # a point collinear with the other segment touches it when it lies in
    # that segment's box
    return ((d1 == 0 and f[4] <= p1x <= f[5] and f[6] <= p1y <= f[7])
            or (d2 == 0 and f[4] <= p2x <= f[5] and f[6] <= p2y <= f[7])
            or (d3 == 0 and e[4] <= q1x <= e[5] and e[6] <= q1y <= e[7])
            or (d4 == 0 and e[4] <= q2x <= e[5] and e[6] <= q2y <= e[7]))


def is_simple_ring(scaled: Scaled) -> bool:
    """Exact simplicity test for a canonicalized ring (m, xs, ys): no two
    edges that are not neighbours share a point.  Every pair of edges is
    tested on the ring's integers; a pair whose boxes are apart shares
    none."""
    _, xs, ys = scaled
    n = len(xs)
    edges = []
    for i in range(n):
        ax, ay, bx, by = xs[i - 1], ys[i - 1], xs[i], ys[i]
        edges.append((ax, ay, bx, by, min(ax, bx), max(ax, bx),
                      min(ay, by), max(ay, by)))
    # edges[i] ends at vertex i, so edges[i] and edges[i + 1] are
    # neighbours, and so are edges[0] and edges[n - 1]
    for i in range(n):
        e = edges[i]
        exmin, exmax, eymin, eymax = e[4], e[5], e[6], e[7]
        for j in range(i + 2, n - (i == 0)):
            f = edges[j]
            if f[5] < exmin or exmax < f[4] or f[7] < eymin or eymax < f[6]:
                continue
            if _touch(e, f):
                return False
    return True


def point_in_ring(scaled: Scaled, p: Point) -> int:
    """Exact location of p in the closed region bounded by a simple ring
    (m, xs, ys): +1 strictly inside, 0 on the boundary, -1 outside."""
    return ratios_in_ring(scaled, ratios(p))


def ratios_in_ring(scaled: Scaled, q: Ratios) -> int:
    """point_in_ring for a point given as Ratios, on the ring's own integers.

    The ring's x axis is scaled by q's x denominator and its y axis by its
    y denominator, and q by m; positive per-axis scales keep every
    comparison and every orientation sign, so q's pairs need not be
    reduced.  Each vertex is scaled as the walk reaches it, its x only for
    an edge whose y-range holds q, so no scaled copy of the ring is built.
    An edge whose y-range misses q can neither hold q nor cross the
    horizontal through q, so only the others cost one orientation, which
    decides both the boundary test and the crossing.
    """
    m, xs, ys = scaled
    xn, xd, yn, yd = q
    px, py = xn * m, yn * m
    inside = False
    ux, uy = xs[-1], ys[-1] * yd
    for vx, vy in zip(xs, ys):
        vy *= yd
        if (py < uy and py < vy) or (py > uy and py > vy):
            ux, uy = vx, vy
            continue
        sx, tx = ux * xd, vx * xd
        side = (tx - sx) * (py - uy) - (vy - uy) * (px - sx)
        if side == 0 and (sx <= px <= tx or tx <= px <= sx):
            return 0
        # the edge crosses the horizontal through q; it crosses the ray to
        # +x exactly when q sits left of an upward edge (or right of a
        # downward one)
        if (uy > py) != (vy > py) and ((side > 0) if vy > uy else (side < 0)):
            inside = not inside
        ux, uy = vx, vy
    return 1 if inside else -1


def is_convex_ring(scaled: Scaled) -> bool:
    """True when every vertex of the ring (m, xs, ys) is a strict left turn."""
    _, xs, ys = scaled
    n = len(xs)
    for i in range(n):
        ax, ay = xs[(i - 2) % n], ys[(i - 2) % n]
        if (xs[i - 1] - ax) * (ys[i] - ay) <= (ys[i - 1] - ay) * (xs[i] - ax):
            return False
    return True


def star_kernel_contains(scaled: Scaled, p: Point) -> bool:
    """True when p is in the kernel of the CCW ring (m, xs, ys) (inner side
    of every edge), decided on the ring's integers against p, each vertex
    scaled as ratios_in_ring scales it."""
    m, xs, ys = scaled
    xd, yd = p.x.denominator, p.y.denominator
    px, py = p.x.numerator * m, p.y.numerator * m
    ux, uy = xs[-1] * xd, ys[-1] * yd
    for x, y in zip(xs, ys):
        vx, vy = x * xd, y * yd
        if (vx - ux) * (py - uy) < (vy - uy) * (px - ux):
            return False
        ux, uy = vx, vy
    return True


# ---------------------------------------------------------------------------
# convex hulls and projection

def _hull_order(xs: Sequence[int], ys: Sequence[int]) -> list[int] | None:
    """Indices of the strict convex hull of the integer points (xs, ys),
    each repeated point once, CCW, lexicographically smallest first; None
    when the points do not span the plane.

    Andrew's monotone chain: a lower and an upper chain over the points in
    lexicographic order, each popping its last point until the turn onto
    the next is strictly left.  A repeat follows its twin in that order and
    turns by zero, so it replaces the twin and adds nothing.
    """
    order = sorted(range(len(xs)), key=lambda i: (xs[i], ys[i]))
    hull: list[int] = []
    for seq in (order, order[::-1]):
        out: list[int] = []
        for k in seq:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                ax, ay = xs[a], ys[a]
                if (xs[b] - ax) * (ys[k] - ay) > (ys[b] - ay) * (xs[k] - ax):
                    break
                out.pop()
            out.append(k)
        hull += out[:-1]
    return hull if len(hull) >= 3 else None


def hull_of_rings(rings: Sequence[Scaled]) -> "Region":
    """The strict convex hull of the vertices of the rings (m, xs, ys), over
    the lcm of their denominators, decided by _hull_order on their
    integers; DegenerateHull when they do not span the plane."""
    L = lcm(*[m for m, _, _ in rings])
    xs = [x * (L // m) for m, rxs, _ in rings for x in rxs]
    ys = [y * (L // m) for m, _, rys in rings for y in rys]
    order = _hull_order(xs, ys)
    if order is None:
        distinct = len(set(zip(xs, ys)))
        raise DegenerateHull(f"{distinct} distinct points" if distinct < 3
                             else "all points collinear")
    return Region(L, [xs[k] for k in order], [ys[k] for k in order])


def project_convex_ring(scaled: Scaled, q: Ratios) -> Ratios:
    """Exact nearest point of a strictly convex CCW ring (m, xs, ys) to the
    point q: q itself when ratios_in_ring finds it in the closed polygon,
    which takes no distance, else nearest_on_boundary's point."""
    return q if ratios_in_ring(scaled, q) >= 0 else nearest_on_boundary(scaled, q)


def nearest_on_boundary(scaled: Scaled, q: Ratios) -> Ratios:
    """Exact nearest point of the boundary of a strictly convex CCW ring
    (m, xs, ys) to the point q, which is q's projection when q lies
    outside the polygon.

    Over the common denominator m of the ring and q, edge u -> v with
    d = v - u and w = q - u has its foot at t = w.d / d.d, and the squared
    distance to the clamped foot is |w|^2 (t <= 0), |q - v|^2 (t >= 1) or
    cross(d, w)^2 / d.d, all integers times m^2.  The first edge with a
    strictly smaller distance wins.
    """
    m0, xs, ys = scaled
    xn, xd, yn, yd = q
    m = lcm(m0, xd, yd)
    k = m // m0
    px, py = xn * (m // xd), yn * (m // yd)
    n = len(xs)
    best = None
    best_n = best_d = 1
    for i in range(n):
        j = (i + 1) % n
        ux, uy = xs[i] * k, ys[i] * k
        dx, dy = xs[j] * k - ux, ys[j] * k - uy
        wx, wy = px - ux, py - uy
        t = wx * dx + wy * dy
        dd = dx * dx + dy * dy
        if t <= 0:
            dist_n, dist_d, foot = wx * wx + wy * wy, 1, (i, 0, 1)
        elif t >= dd:
            ex, ey = wx - dx, wy - dy
            dist_n, dist_d, foot = ex * ex + ey * ey, 1, (j, 0, 1)
        else:
            cr = dx * wy - dy * wx
            dist_n, dist_d, foot = cr * cr, dd, (i, t, dd)
        if best is None or dist_n * best_d < best_n * dist_d:
            best, best_n, best_d = foot, dist_n, dist_d
    # u + (v - u) t / dd over m; a vertex foot is (i, 0, 1)
    i, t, dd = best
    j = (i + 1) % n
    ux, uy = xs[i] * k, ys[i] * k
    den = m * dd
    return (*reduced(ux * dd + (xs[j] * k - ux) * t, den),
            *reduced(uy * dd + (ys[j] * k - uy) * t, den))


# ---------------------------------------------------------------------------
# regions

@dataclass(frozen=True)
class Region:
    """Simple polygon with positive area: a canonical ring over its common
    denominator, vertex i at (xs[i] / m, ys[i] / m).

    The constructor trusts the caller that the ring is canonical; it
    divides out gcd(m, xs..., ys...), so m is the lcm of the vertices'
    reduced denominators and equal rings have equal fields.
    """

    m: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self):
        g = gcd(self.m, *self.xs, *self.ys)
        object.__setattr__(self, "m", self.m // g)
        object.__setattr__(self, "xs", tuple(x // g for x in self.xs))
        object.__setattr__(self, "ys", tuple(y // g for y in self.ys))

    @staticmethod
    def from_ring(points: Sequence[Point]) -> "Region":
        """The region bounded by any ring of Points; see from_integers."""
        return Region.from_integers(*over_common_denominator(points))

    @staticmethod
    def from_integers(m: int, xs: Sequence[int], ys: Sequence[int]) -> "Region":
        """The region bounded by the ring (m, xs, ys) in any order, put in
        canonical form and checked.

        Raises DegenerateRegion when the ring has no area, NotSimple when
        its boundary touches itself.
        """
        order = _canonical_order(xs, ys)
        if order is None:
            raise DegenerateRegion("ring has zero area")
        region = Region(m, [xs[i] for i in order], [ys[i] for i in order])
        if not is_simple_ring(region._scaled):
            raise NotSimple("boundary self-intersects")
        return region

    @staticmethod
    def hull_of(points: Iterable[Point]) -> "Region":
        """The strict convex hull of the points (hull_of_rings);
        DegenerateHull when they do not span the plane."""
        return hull_of_rings([over_common_denominator(list(points))])

    def kernel_contains(self, p: Point) -> bool:
        return star_kernel_contains(self._scaled, p)

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def _scaled(self) -> Scaled:
        """(m, xs, ys), for the integer predicates."""
        return self.m, self.xs, self.ys

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        m = self.m
        return tuple(Point(Fraction(x, m), Fraction(y, m))
                     for x, y in zip(self.xs, self.ys))

    def locate(self, p: Point) -> int:
        """+1 strictly inside, 0 on the boundary, -1 outside."""
        return point_in_ring(self._scaled, p)

    def holds(self, q: Ratios) -> bool:
        """True when the point given as Ratios lies in the closed polygon."""
        return ratios_in_ring(self._scaled, q) >= 0

    @cached_property
    def area2(self) -> Fraction:
        return ring_area2(self._scaled)

    @cached_property
    def diameter_sq(self) -> Fraction:
        return diameter_sq_of(self._scaled)


def equal_canonical(a: Region, b: Region) -> bool:
    """Stopping-rule equality: identical canonical integer rings, which is
    Region equality."""
    return a == b


# ---------------------------------------------------------------------------
# zero-area seeds

@dataclass(frozen=True)
class PointSeed:
    point: Point

