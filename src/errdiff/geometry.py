"""Exact planar primitives over rational coordinates.

Every coordinate is a fractions.Fraction and every predicate is decided by
integer sign computations, so there is no floating point and no tolerance
anywhere in this module. The hot predicates (orient, HalfPlane.side and the
ring area sign in canonicalize_ring) read the numerators and denominators
directly and build no intermediate Fractions; HalfPlane.boundary_point
builds only the two coordinates of the crossing.

Two polygon types share one base, Polygon (the canonical vertex tuple,
edges, area2, bbox, diameter_sq): ConvexPolygon, a strictly convex hull,
and Region, a simple polygon with an optional declared star center.
Callers dispatch on the two types, so neither is the other.  Clipping and
union live in errdiff.booleans and errdiff.starunion.

Convex polygons answer locate and contains_point from their edge walls,
HalfPlane integer triples computed once per polygon.  project_convex puts
the polygon and the query point over one common denominator
(over_common_denominator) and decides containment, the foot on each edge
and every distance comparison in integers; only the returned point is a
new Fraction pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from typing import Iterable, Iterator, Sequence

Scalar = Fraction

ZERO = Fraction(0)


def parse_scalar(value: str | int) -> Fraction:
    """Parse an exact rational literal: integer, 'a/b', or exact decimal."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
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
    """A declared star center is outside the polygon kernel."""


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

    def scale(self, k: Fraction) -> "Point":
        return Point(self.x * k, self.y * k)

    def dot(self, other: "Point") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> Fraction:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)


ORIGIN = Point(ZERO, ZERO)


def pt(x, y) -> Point:
    """Point from any rational-convertible pair (ints, strings, Fractions)."""
    return Point(Fraction(x), Fraction(y))


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of cross(b - a, c - a): +1 left turn, -1 right turn, 0 collinear.

    Works on numerator/denominator integers directly; Fraction denominators
    are positive by invariant, so the sign falls out of one big product.
    """
    ax, ay, bx, by, cx, cy = a.x, a.y, b.x, b.y, c.x, c.y
    d1xn = bx.numerator * ax.denominator - ax.numerator * bx.denominator
    d1yn = by.numerator * ay.denominator - ay.numerator * by.denominator
    d2xn = cx.numerator * ax.denominator - ax.numerator * cx.denominator
    d2yn = cy.numerator * ay.denominator - ay.numerator * cy.denominator
    t = (d1xn * d2yn * (by.denominator * ay.denominator)
         * (cx.denominator * ax.denominator)
         - d1yn * d2xn * (bx.denominator * ax.denominator)
         * (cy.denominator * ay.denominator))
    return (t > 0) - (t < 0)


def dist_sq(a: Point, b: Point) -> Fraction:
    d = a - b
    return d.norm_sq()


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """True when p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    lo_x, hi_x = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
    lo_y, hi_y = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
    return lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y


def segments_touch(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True when closed segments [p1,p2] and [q1,q2] share any point."""
    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) \
            and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def line_cross_point(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    """Intersection of line(p1,p2) with line(q1,q2); lines must not be parallel."""
    dp = p2 - p1
    dq = q2 - q1
    den = dp.cross(dq)
    if den == 0:
        raise GeometryError("parallel lines have no single intersection")
    t = (q1 - p1).cross(dq) / den
    return p1 + dp.scale(t)


def over_common_denominator(points: Sequence[Point]) -> tuple[int, list[int], list[int]]:
    """(m, xs, ys) with points[i] == (xs[i] / m, ys[i] / m), where m > 0 is
    the lcm of every coordinate denominator."""
    m = lcm(*[q.denominator for p in points for q in (p.x, p.y)])
    return (m, [p.x.numerator * (m // p.x.denominator) for p in points],
            [p.y.numerator * (m // p.y.denominator) for p in points])


def bbox(points: Iterable[Point]) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    xs = []
    ys = []
    for p in points:
        xs.append(p.x)
        ys.append(p.y)
    return min(xs), min(ys), max(xs), max(ys)


def bbox_overlap(b1, b2) -> bool:
    return not (b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1])


def diameter_sq_of(points: Sequence[Point]) -> Fraction:
    best = ZERO
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            d = dist_sq(points[i], points[j])
            if d > best:
                best = d
    return best


def ceil_sqrt(q: Fraction) -> Fraction:
    """An exact rational upper bound for sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    n, d = q.numerator, q.denominator
    return Fraction(isqrt(n) + 1, max(isqrt(d), 1))


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """Closed half-plane {(x, y) : a*x + b*y <= c} with (a, b) != (0, 0)."""

    a: Fraction
    b: Fraction
    c: Fraction
    # (a, b, c) times the positive common denominator of the three
    _abc: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise GeometryError("half-plane normal is zero")
        a, b, c = self.a, self.b, self.c
        m = lcm(a.denominator, b.denominator, c.denominator)
        object.__setattr__(self, "_abc", (
            a.numerator * (m // a.denominator),
            b.numerator * (m // b.denominator),
            c.numerator * (m // c.denominator)))

    def eval(self, p: Point) -> Fraction:
        return self.a * p.x + self.b * p.y - self.c

    def _level(self, p: Point) -> int:
        """eval(p) times a positive integer: the half-plane's common
        denominator times both coordinate denominators of p."""
        A, B, C = self._abc
        xn, xd = p.x.numerator, p.x.denominator
        yn, yd = p.y.numerator, p.y.denominator
        return A * xn * yd + B * yn * xd - C * xd * yd

    def side(self, p: Point) -> int:
        """-1 strictly inside, 0 on the boundary line, +1 strictly outside."""
        v = self._level(p)
        return (v > 0) - (v < 0)

    def contains(self, p: Point) -> bool:
        return self._level(p) <= 0

    def boundary_point(self, u: Point, v: Point) -> Point:
        """Crossing of segment (u, v) with the boundary line; sides must differ.

        The crossing is (fu*v - fv*u) / (fu - fv) for f = eval.  Scaling f
        to _level cancels the denominators of u and v, so each coordinate
        comes out as one integer over one shared integer.
        """
        fu, fv = self._level(u), self._level(v)
        uxn, uxd, uyn, uyd = u.x.numerator, u.x.denominator, u.y.numerator, u.y.denominator
        vxn, vxd, vyn, vyd = v.x.numerator, v.x.denominator, v.y.numerator, v.y.denominator
        den = fu * vxd * vyd - fv * uxd * uyd
        return Point(Fraction(fu * vxn * vyd - fv * uxn * uyd, den),
                     Fraction(fu * vyn * vxd - fv * uyn * uxd, den))


# ---------------------------------------------------------------------------
# rings (ordered vertex lists)

def _ring_area2_nd(ring: Sequence[Point]) -> tuple[int, int]:
    """Twice the signed area as an unreduced (numerator, positive
    denominator) pair: the shoelace sum over the common denominators of
    the x and of the y coordinates."""
    dx = lcm(*[p.x.denominator for p in ring])
    dy = lcm(*[p.y.denominator for p in ring])
    xs = [p.x.numerator * (dx // p.x.denominator) for p in ring]
    ys = [p.y.numerator * (dy // p.y.denominator) for p in ring]
    total = 0
    for i in range(len(ring)):
        total += xs[i - 1] * ys[i] - ys[i - 1] * xs[i]
    return total, dx * dy


def ring_area2(ring: Sequence[Point]) -> Fraction:
    return Fraction(*_ring_area2_nd(ring))


def canonicalize_ring(points: Sequence[Point]) -> list[Point] | None:
    """Canonical form: CCW, no collinear triples, lexicographically smallest
    vertex first. Returns None when the ring has no area left."""
    ring = []
    for p in points:
        if not ring or p != ring[-1]:
            ring.append(p)
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    # drop the first collinear vertex, then look again from its predecessor:
    # the triples before it are unchanged, except the one at 0 when the
    # last vertex goes, and the scan then starts over
    i = 0
    while i < len(ring) and len(ring) >= 3:
        n = len(ring)
        if orient(ring[i - 1], ring[i], ring[(i + 1) % n]) == 0:
            ring.pop(i)
            i = 0 if i == n - 1 else max(i - 1, 0)
        else:
            i += 1
    if len(ring) < 3:
        return None
    a2 = _ring_area2_nd(ring)[0]
    if a2 == 0:
        return None
    if a2 < 0:
        ring.reverse()
    k = min(range(len(ring)), key=lambda i: ring[i].key())
    return ring[k:] + ring[:k]


def is_simple_ring(ring: Sequence[Point]) -> bool:
    """Exact simplicity test for a canonicalized ring (O(n^2) edge pairs)."""
    n = len(ring)
    edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            if adjacent:
                continue
            if segments_touch(*edges[i], *edges[j]):
                return False
    return True


def point_in_ring(ring: Sequence[Point], p: Point) -> int:
    """Exact location of p in the closed region bounded by a simple ring:
    +1 strictly inside, 0 on the boundary, -1 outside.

    An edge whose y-range misses p can neither hold p nor cross the
    horizontal through p, so only the others cost one orient, which decides
    both the boundary test and the crossing.
    """
    inside = False
    n = len(ring)
    px, py = p.x, p.y
    for i in range(n):
        u = ring[i]
        v = ring[(i + 1) % n]
        if (py < u.y and py < v.y) or (py > u.y and py > v.y):
            continue
        side = orient(u, v, p)
        if side == 0 and (u.x <= px <= v.x or v.x <= px <= u.x):
            return 0
        if (u.y > py) != (v.y > py):
            # the edge crosses the horizontal through p; it crosses the ray
            # to +x exactly when p sits left of an upward edge (or right of
            # a downward one)
            if v.y > u.y:
                if side > 0:
                    inside = not inside
            else:
                if side < 0:
                    inside = not inside
    return 1 if inside else -1


def is_convex_ring(ring: Sequence[Point]) -> bool:
    """True when every vertex of the ring is a strict left turn."""
    n = len(ring)
    return all(orient(ring[i], ring[(i + 1) % n], ring[(i + 2) % n]) > 0
               for i in range(n))


def star_kernel_contains(ring: Sequence[Point], p: Point) -> bool:
    """True when p is in the kernel of the CCW ring (inner side of every edge)."""
    n = len(ring)
    for i in range(n):
        if orient(ring[i], ring[(i + 1) % n], p) < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# polygons

@dataclass(frozen=True)
class Polygon:
    """A canonical vertex ring and the measures both polygon types share;
    each type supplies its own locate."""

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> Iterator[tuple[Point, Point]]:
        vs = self.vertices
        n = len(vs)
        for i in range(n):
            yield vs[i], vs[(i + 1) % n]

    def contains_point(self, p: Point) -> bool:
        return self.locate(p) >= 0

    @cached_property
    def area2(self) -> Fraction:
        return ring_area2(self.vertices)

    @cached_property
    def bbox(self):
        return bbox(self.vertices)

    @cached_property
    def diameter_sq(self) -> Fraction:
        return diameter_sq_of(self.vertices)


def convex_hull(points: Iterable[Point]) -> tuple[Point, ...]:
    """Strict convex hull, CCW, lexicographically smallest vertex first.

    Raises DegenerateHull when the points do not span the plane.
    """
    uniq = sorted({p.key() for p in points})
    pts = [Point(x, y) for x, y in uniq]
    if len(pts) < 3:
        raise DegenerateHull(f"{len(pts)} distinct points")

    def build(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHull("all points collinear")
    return tuple(hull)


@dataclass(frozen=True)
class ConvexPolygon(Polygon):
    """Strictly convex CCW polygon in canonical form."""

    @staticmethod
    def hull_of(points: Iterable[Point]) -> "ConvexPolygon":
        return ConvexPolygon(convex_hull(points))

    def locate(self, p: Point) -> int:
        """+1 strictly inside, 0 on boundary, -1 outside."""
        on_edge = False
        for wall in self._walls:
            s = wall._level(p)
            if s > 0:
                return -1
            if s == 0:
                on_edge = True
        return 0 if on_edge else 1

    @cached_property
    def _walls(self) -> tuple[HalfPlane, ...]:
        return tuple(self.halfplanes())

    @cached_property
    def _scaled(self) -> tuple[int, list[int], list[int]]:
        return over_common_denominator(self.vertices)

    def translate(self, d: Point) -> "ConvexPolygon":
        ring = canonicalize_ring([v + d for v in self.vertices])
        if ring is None:
            raise DegenerateRegion("translated polygon has no area")
        return ConvexPolygon(tuple(ring))

    def halfplanes(self) -> list[HalfPlane]:
        """Inward half-planes of the edges; their intersection is the polygon."""
        out = []
        for u, v in self.edges():
            a = v.y - u.y
            b = u.x - v.x
            c = a * u.x + b * u.y
            out.append(HalfPlane(a, b, c))
        return out


def project_convex(poly: ConvexPolygon, x: Point) -> Point:
    """Exact nearest point of a convex polygon (the metric projection).

    Over the common denominator m of the polygon and x, edge u -> v with
    d = v - u and w = x - u has its foot at t = w.d / d.d, and the squared
    distance to the clamped foot is |w|^2 (t <= 0), |x - v|^2 (t >= 1) or
    cross(d, w)^2 / d.d, all integers times m^2.  x lies in the polygon
    when no cross(d, w) is negative.  The first edge with a strictly
    smaller distance wins.
    """
    m0, xs, ys = poly._scaled
    xn, xd, yn, yd = x.x.numerator, x.x.denominator, x.y.numerator, x.y.denominator
    m = lcm(m0, xd, yd)
    k = m // m0
    px, py = xn * (m // xd), yn * (m // yd)
    n = len(xs)
    inside = True
    best = None
    best_n = best_d = 1
    for i in range(n):
        j = (i + 1) % n
        ux, uy = xs[i] * k, ys[i] * k
        dx, dy = xs[j] * k - ux, ys[j] * k - uy
        wx, wy = px - ux, py - uy
        cr = dx * wy - dy * wx
        if cr < 0:
            inside = False
        t = wx * dx + wy * dy
        dd = dx * dx + dy * dy
        if t <= 0:
            dist_n, dist_d, foot = wx * wx + wy * wy, 1, (i, 0, 1)
        elif t >= dd:
            ex, ey = wx - dx, wy - dy
            dist_n, dist_d, foot = ex * ex + ey * ey, 1, (j, 0, 1)
        else:
            dist_n, dist_d, foot = cr * cr, dd, (i, t, dd)
        if best is None or dist_n * best_d < best_n * dist_d:
            best, best_n, best_d = foot, dist_n, dist_d
    if inside:
        return x
    i, t, dd = best
    if t == 0:
        return poly.vertices[i]
    j = (i + 1) % n
    ux, uy = xs[i] * k, ys[i] * k
    den = m * dd
    return Point(Fraction(ux * dd + (xs[j] * k - ux) * t, den),
                 Fraction(uy * dd + (ys[j] * k - uy) * t, den))


def minkowski_convex(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Minkowski sum of convex polygons by edge-vector angular merge."""

    def bottom_start(poly: ConvexPolygon) -> list[Point]:
        vs = poly.vertices
        k = min(range(len(vs)), key=lambda i: (vs[i].y, vs[i].x))
        return list(vs[k:]) + list(vs[:k])

    def edge_vectors(vs: list[Point]) -> list[Point]:
        return [vs[(i + 1) % len(vs)] - vs[i] for i in range(len(vs))]

    def half(d: Point) -> int:
        return 0 if (d.y > 0 or (d.y == 0 and d.x > 0)) else 1

    a = bottom_start(p)
    b = bottom_start(q)
    ea = edge_vectors(a)
    eb = edge_vectors(b)
    out = [a[0] + b[0]]
    i = j = 0
    while i < len(ea) or j < len(eb):
        if i == len(ea):
            step = eb[j]
            j += 1
        elif j == len(eb):
            step = ea[i]
            i += 1
        else:
            da, db = ea[i], eb[j]
            ha, hb = half(da), half(db)
            if ha != hb:
                take_a = ha < hb
            else:
                cr = da.cross(db)
                if cr > 0:
                    take_a = True
                elif cr < 0:
                    take_a = False
                else:
                    step = da + db
                    i += 1
                    j += 1
                    out.append(out[-1] + step)
                    continue
            if take_a:
                step = da
                i += 1
            else:
                step = db
                j += 1
        out.append(out[-1] + step)
    ring = canonicalize_ring(out)
    if ring is None:
        raise DegenerateHull("degenerate Minkowski sum")
    return ConvexPolygon(tuple(ring))


# ---------------------------------------------------------------------------
# regions

@dataclass(frozen=True)
class Region(Polygon):
    """Simple polygon with positive area in canonical form.

    reference, when set, is a declared star center and must lie in the kernel.
    """

    reference: Point | None = None

    @staticmethod
    def from_ring(points: Sequence[Point], reference: Point | None = None,
                  validate: bool = True) -> "Region":
        ring = canonicalize_ring(points)
        if ring is None:
            raise DegenerateRegion("ring has zero area")
        if validate and not is_simple_ring(ring):
            raise NotSimple("boundary self-intersects")
        if reference is not None and not star_kernel_contains(ring, reference):
            raise KernelViolation("reference point outside the kernel")
        return Region(tuple(ring), reference)

    def locate(self, p: Point) -> int:
        return point_in_ring(self.vertices, p)

    def translate(self, d: Point) -> "Region":
        ref = self.reference + d if self.reference is not None else None
        return Region(tuple(v + d for v in self.vertices), ref)

    def with_reference(self, reference: Point | None) -> "Region":
        if reference is not None and not self.kernel_contains(reference):
            raise KernelViolation("reference point outside the kernel")
        return Region(self.vertices, reference)

    def kernel_contains(self, p: Point) -> bool:
        return star_kernel_contains(self.vertices, p)


def equal_canonical(a: Region, b: Region) -> bool:
    """Stopping-rule equality: identical canonical vertex tuples."""
    return a.vertices == b.vertices


# ---------------------------------------------------------------------------
# zero-area seeds

@dataclass(frozen=True)
class PointSeed:
    point: Point

