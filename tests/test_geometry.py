"""Exact geometry kernel: predicates, hulls, regions, Minkowski sums."""
import math
from fractions import Fraction as F
from math import gcd, lcm
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from errdiff.geometry import (
    ORIGIN,
    DegenerateHull,
    DegenerateRegion,
    GeometryError,
    MultiComponent,
    NotSimple,
    Point,
    Region,
    Scaled,
    _canonical_order,
    diameter_sq_of,
    dist_sq,
    equal_canonical,
    hull_of_rings,
    is_convex_ring,
    is_simple_ring,
    nearest_on_boundary,
    over_common_denominator as ocd,
    parse_scalar,
    point_in_ring,
    point_of,
    project_convex_ring,
    pt,
    ratios,
    ratios_in_ring,
    ring_area2,
    scalar_str,
    star_kernel_contains,
)
from errdiff.booleans import Wall, _Boundary
from errdiff.operators import minkowski_convex_star
from errdiff.starunion import cycle_envelope, star_cycle

UNIT_SQUARE = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]


# ---------------------------------------------------------------------------
# the reference clipper: one cell at a time, by Sutherland & Hodgman

# A piece before its cleanup: parallel sequences (xs, ys, ds, on).  Vertex
# i is the point (xs[i] / ds[i], ys[i] / ds[i]) with ds[i] > 0; on[i] says
# whether it lies on a wall line.
_Ring = tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[bool]]


def _cleaned(ring: _Ring) -> Scaled | None:
    """ring over the lcm of its reduced vertex denominators, each vertex on
    a wall line dropped while it repeats a neighbour or is collinear with
    its two, also where the boundary doubles back; None when fewer than
    three are left.  It finishes every piece of the reference clipper and
    of the reference walk (test_voronoi.reference_split_ring)."""
    xs, ys, ds, on = ring
    L = lcm(*ds)
    cxs = [x * (L // d) for x, d in zip(xs, ds)]
    cys = [y * (L // d) for y, d in zip(ys, ds)]
    # drop a vertex, then look again from its predecessor (_canonical_order)
    keep = list(range(len(cxs)))
    i = 0
    while i < len(keep) and len(keep) >= 3:
        n = len(keep)
        b = keep[i]
        if on[b]:
            a, c = keep[i - 1], keep[(i + 1) % n]
            ax, ay = cxs[a], cys[a]
            if (cxs[b] - ax) * (cys[c] - ay) == (cys[b] - ay) * (cxs[c] - ax):
                keep.pop(i)
                i = 0 if i == n - 1 else max(i - 1, 0)
                continue
        i += 1
    if len(keep) < 3:
        return None
    g = gcd(L, *[cxs[i] for i in keep], *[cys[i] for i in keep])
    return L // g, [cxs[i] // g for i in keep], [cys[i] // g for i in keep]


def clip_components(scaled: Scaled, walls: Sequence[Wall]) -> list[Scaled]:
    """Every component of a simple canonical ring cut by closed half-planes.

    scaled is the ring over its common denominator m.  Every piece of it
    is carried as integers from one wall to the next, each vertex u as a
    triple (x, y, d) with d > 0: u has the level f(u) = A x + B y - C d
    against the wall (A, B, C), whose sign is its side,
    and an edge u -> v whose levels have opposite signs crosses the wall
    at the triple f(u) (x, y, d)_v - f(v) (x, y, d)_u, its sign turned so
    that d > 0 and reduced by its gcd.  A piece with no vertex strictly
    inside a wall has no area and goes.  Each surviving component comes
    back as a ring (m, xs, ys) over the lcm of its reduced vertex
    denominators, counter-clockwise in the cut's own vertex order, without
    the vertices on a wall line that repeat a neighbour or are collinear
    with their two; one left with fewer than three vertices goes.  No
    other vertex needs the test: one strictly inside every wall keeps its
    two edges of the canonical input, so it is neither repeated nor
    collinear.  A ring no wall cuts comes back as it was given.  The
    components come in no particular order.  It is the reference that
    the one walk of errdiff.voronoi.split_ring is checked against: each
    cell clipped by itself, one wall at a time.
    """
    m, xs, ys = scaled
    whole: _Ring = (xs, ys, [m] * len(xs), [False] * len(xs))
    rings = [whole]
    for A, B, C in walls:
        cut: list[_Ring] = []
        for ring in rings:
            rxs, rys, rds, _ = ring
            levels = [A * x + B * y - C * d for x, y, d in zip(rxs, rys, rds)]
            if max(levels) <= 0:
                cut.append(ring)
            elif min(levels) < 0:
                cut.extend(_cut(ring, levels, A, B))
        rings = cut
        if not rings:
            return []
    if rings[0] is whole:
        return [scaled]
    comps = [_cleaned(ring) for ring in rings]
    return [comp for comp in comps if comp is not None]


def _cut(ring: _Ring, levels: list[int], A: int, B: int) -> list[_Ring]:
    """The pieces of ring on the kept side of one wall that it crosses.

    The kept parts of the boundary are cut into chains that leave the wall
    line and come back to it; each chain end joins the next chain start
    along the line, in the direction (-B, A) that has the kept side on its
    left.  A position on the line is A y - B x over d.  One chain, the
    common cut, joins its own ends with no sort (Sutherland & Hodgman,
    CACM 1974): its end must lie at or before its start, one
    cross-multiplied comparison.  Several chains are paired by their
    positions sorted over the lcm of their denominators.
    """
    xs, ys, ds, on = ring
    n = len(levels)
    # walk the edges from an outside vertex once around: a chain is a run
    # of crossings and vertices with level <= 0, on the line when a crossing
    # or at level 0; deep, whether one of its vertices lies strictly inside
    chains: list[tuple[list[tuple[int, int, int, bool]], bool]] = []
    cur: list[tuple[int, int, int, bool]] = []
    deep = False
    i = levels.index(max(levels))
    for _ in range(n):
        j = i + 1 if i + 1 < n else 0
        fu, fv = levels[i], levels[j]
        if (fu > 0 > fv) or (fu < 0 < fv):
            X = fu * xs[j] - fv * xs[i]
            Y = fu * ys[j] - fv * ys[i]
            D = fu * ds[j] - fv * ds[i]
            g = gcd(X, Y, D) if D > 0 else -gcd(X, Y, D)
            cur.append((X // g, Y // g, D // g, True))
        if fv <= 0:
            cur.append((xs[j], ys[j], ds[j], on[j] or fv == 0))
            deep = deep or fv < 0
        else:
            if len(cur) >= 2:
                chains.append((cur, deep))
            cur, deep = [], False
        i = j

    if len(chains) == 1:
        ch, deep = chains[0]
        ex, ey, ed, _ = ch[-1]
        sx, sy, sd, _ = ch[0]
        if (A * ey - B * ex) * sd > (A * sy - B * sx) * ed:
            raise MultiComponent("clip produced a degenerate boundary contact")
        return [tuple(zip(*ch))] if deep else []

    ends = [w for ch, _ in chains for w in (ch[-1], ch[0])]
    L = lcm(*[w[2] for w in ends])
    events = sorted(((A * w[1] - B * w[0]) * (L // w[2]), kind, ci)
                    for ci, (ch, _) in enumerate(chains)
                    for kind, w in ((0, ch[-1]), (1, ch[0])))
    succ: dict[int, int] = {}
    for a, b in zip(events[0::2], events[1::2]):
        if a[1] != 0 or b[1] != 1:
            raise MultiComponent("clip produced a degenerate boundary contact")
        succ[a[2]] = b[2]

    seen: set[int] = set()
    pieces: list[_Ring] = []
    for ci in range(len(chains)):
        if ci in seen:
            continue
        piece: list[tuple[int, int, int, bool]] = []
        deep = False
        cur_id = ci
        while cur_id not in seen:
            seen.add(cur_id)
            ch, ch_deep = chains[cur_id]
            piece.extend(ch)
            deep = deep or ch_deep
            cur_id = succ[cur_id]
        # a piece with no vertex strictly inside lies on the line: no area
        if deep:
            pieces.append(tuple(zip(*piece)))
    return pieces


def rotated(scaled) -> list[int]:
    """The canonical order of a clipped component (m, xs, ys), which must
    be a rotation of its own order: counter-clockwise, positive area, no
    vertex repeated or collinear with its two neighbours."""
    _, xs, ys = scaled
    n = len(xs)
    order = _canonical_order(xs, ys)
    assert order is not None and ring_area2(scaled) > 0
    assert order == [(order[0] + i) % n for i in range(n)]
    return order


def clipped(R: Region, walls) -> list[Region]:
    """Every component of R cut by the walls (clip_components), each a
    Region in canonical form, which the component's order only rotates."""
    out = []
    for m, xs, ys in clip_components(R._scaled, walls):
        order = rotated((m, xs, ys))
        out.append(Region(m, [xs[i] for i in order], [ys[i] for i in order]))
    return out


def cross(a: Point, b: Point) -> F:
    return a.x * b.y - a.y * b.x


def dot(a: Point, b: Point) -> F:
    return a.x * b.x + a.y * b.y


def scale(p: Point, k: F) -> Point:
    return Point(p.x * k, p.y * k)


def project(poly, x):
    """The nearest point of a convex polygon to the Point x, by
    project_convex_ring on their integers."""
    return point_of(project_convex_ring(poly._scaled, ratios(x)))

coord = st.fractions(min_value=-4, max_value=4, max_denominator=8)
points = st.builds(Point, coord, coord)
# coordinates of the size the operator chains reach: denominators up to 2**128
wide_coord = st.integers(1, 2**128).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).map(lambda n: F(n, d)))
wide_points = st.builds(Point, wide_coord, wide_coord)
grid_points = st.builds(pt, st.integers(-2, 2), st.integers(-2, 2))


def canonical(points):
    """The ring's canonical form by the package's integer sweep
    (_canonical_order), as Points; None when it has no area left."""
    _, xs, ys = ocd(points)
    order = _canonical_order(xs, ys)
    return None if order is None else [points[i] for i in order]


def hull(points):
    """The vertices of Region.hull_of(points)."""
    return Region.hull_of(points).vertices


def reference_canonicalize(points):
    """canonical as a plain restart-from-the-start sweep with a
    Fraction area, the specification the integer version must match."""
    ring = []
    for p in points:
        if not ring or p != ring[-1]:
            ring.append(p)
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    changed = True
    while changed and len(ring) >= 3:
        changed = False
        n = len(ring)
        for i in range(n):
            if reference_orient(ring[i - 1], ring[i], ring[(i + 1) % n]) == 0:
                ring.pop(i)
                changed = True
                break
    if len(ring) < 3:
        return None
    a2 = sum((cross(ring[i - 1], ring[i]) for i in range(len(ring))), F(0))
    if a2 == 0:
        return None
    if a2 < 0:
        ring.reverse()
    # the lexicographically least rotation: it starts at the smallest
    # vertex, at the right one of its occurrences where the ring touches
    # itself there
    k = min(range(len(ring)), key=lambda i: [p.key() for p in ring[i:] + ring[:i]])
    return ring[k:] + ring[:k]


def reference_point_in_ring(ring, p):
    """point_in_ring in two passes per edge, reference_on_segment and then
    the crossing test with reference_orient: the specification the
    one-orient loop must match."""
    inside = False
    n = len(ring)
    for i in range(n):
        u, v = ring[i], ring[(i + 1) % n]
        if reference_on_segment(u, v, p):
            return 0
        if (u.y > p.y) != (v.y > p.y):
            side = reference_orient(u, v, p)
            if (side > 0) if v.y > u.y else (side < 0):
                inside = not inside
    return 1 if inside else -1


@st.composite
def ring_and_point(draw, point_strategy):
    """A ring, simple or not, and a point that is free, a vertex, on an
    edge, or level with a vertex (the crossing ray runs through it)."""
    ring = draw(st.lists(point_strategy, min_size=3, max_size=8))
    i = draw(st.integers(0, len(ring) - 1))
    u, v = ring[i], ring[(i + 1) % len(ring)]
    kind = draw(st.sampled_from(("free", "vertex", "edge", "level")))
    if kind == "free":
        x = draw(point_strategy)
    elif kind == "vertex":
        x = u
    elif kind == "edge":
        x = u + scale(v - u, draw(st.fractions(0, 1, max_denominator=6)))
    else:
        x = Point(draw(point_strategy).x, u.y)
    return ring, x


def ring_of(*coords) -> list[Point]:
    return [pt(x, y) for x, y in coords]


def sign(v) -> int:
    return (v > 0) - (v < 0)


def reference_orient(a, b, c) -> int:
    """Sign of cross(b - a, c - a) in Fractions: +1 left turn, -1 right
    turn, 0 collinear.  The one orientation predicate of the tests; the
    package decides every turn on integers."""
    return sign(cross(b - a, c - a))


def reference_hull(points):
    """hull as Andrew's monotone chain over the distinct points in
    Fraction order, turning with reference_orient: the specification the
    integer chain must match, DegenerateHull messages included."""
    pts = [Point(x, y) for x, y in sorted({p.key() for p in points})]
    if len(pts) < 3:
        raise DegenerateHull(f"{len(pts)} distinct points")

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and reference_orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = build(pts)[:-1] + build(reversed(pts))[:-1]
    if len(hull) < 3:
        raise DegenerateHull("all points collinear")
    return tuple(hull)


def wall(a, b, c):
    """The half-plane a*x + b*y <= c of rationals a, b, c as the wall the
    clipper takes: the integer triple over their common denominator,
    divided by its gcd."""
    m = lcm(a.denominator, b.denominator, c.denominator)
    A, B, C = (k.numerator * (m // k.denominator) for k in (a, b, c))
    g = gcd(A, B, C)
    return A // g, B // g, C // g


def level(w, p):
    """A*x + B*y - C at p for the wall (A, B, C), in Fractions."""
    A, B, C = w
    return A * p.x + B * p.y - C


class TestScalars:
    def test_parse_forms(self):
        assert parse_scalar("1/3") == F(1, 3)
        assert parse_scalar("0.5") == F(1, 2)
        assert parse_scalar("-2") == F(-2)
        assert parse_scalar(7) == F(7)

    def test_rejects_bool_and_junk(self):
        with pytest.raises(ValueError):
            parse_scalar(True)
        with pytest.raises(ValueError):
            parse_scalar("one half")
        with pytest.raises(ValueError):
            parse_scalar("1/0")

    @pytest.mark.parametrize("text", ["1_0", "1_000/3", "1/1_0", "0.1_5", "1e1_0", "_1", "1_"])
    def test_rejects_digit_separators(self, text):
        # Fraction reads "1_0" as 10 from Python 3.11 on but rejects it on
        # 3.10, the oldest supported version: parse_scalar rejects it on all
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_scalar(text)

    def test_str_round_trip(self):
        for s in ("1/3", "-7/2", "0", "5"):
            assert scalar_str(parse_scalar(s)) == s

    def test_pt_rejects_a_float(self):
        # Fraction(0.1) is 3602879701896397/2**55, not 1/10
        with pytest.raises(TypeError, match="inexact coordinate 0.1"):
            pt(0.1, 0)
        with pytest.raises(TypeError, match="inexact coordinate 2.0"):
            pt(0, 2.0)
        assert pt("1/10", F(2)) == Point(F(1, 10), F(2))


@st.composite
def hull_inputs(draw):
    """Points with mixed denominators (up to 8, or up to 2**128), some on
    the segments between drawn points (collinear runs, or a whole input on
    one line), some repeated, in any order."""
    pts = draw(st.lists(draw(st.sampled_from((points, wide_points))), max_size=8))
    if len(pts) >= 2:
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            ts = draw(st.lists(st.fractions(-1, 2, max_denominator=6), max_size=4))
            run = [a + scale(b - a, t) for t in ts]
            pts = [a, b] + run if draw(st.booleans()) else pts + run
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts))


def hull_outcome(hull, pts):
    try:
        return hull(pts)
    except DegenerateHull as e:
        return f"DegenerateHull: {e}"


class TestHull:
    @settings(max_examples=400)
    @given(hull_inputs())
    def test_matches_reference_chain(self, pts):
        assert hull_outcome(hull, pts) == hull_outcome(reference_hull, pts)

    def test_degenerate_messages(self):
        assert hull_outcome(hull, []) == "DegenerateHull: 0 distinct points"
        assert (hull_outcome(hull, [pt(1, 2), pt(F(2, 2), 2), pt(3, 1)])
                == "DegenerateHull: 2 distinct points")
        assert (hull_outcome(hull, [pt(0, 0), pt(F(1, 3), F(1, 6)), pt(2, 1)])
                == "DegenerateHull: all points collinear")

    @settings(max_examples=200)
    @given(hull_inputs())
    def test_hull_of_is_the_core_on_one_ring(self, pts):
        """Region.hull_of is hull_of_rings on the points over their common
        denominator, DegenerateHull messages included."""
        core = hull_outcome(lambda p: hull_of_rings([ocd(p)]), pts)
        assert hull_outcome(Region.hull_of, pts) == core

    def test_core_unites_rings_over_the_lcm(self):
        # (0, 0) and (1/2, 0) over 2, (0, 1/3) over 3
        H = hull_of_rings([(2, [0, 1], [0, 0]), (3, [0], [1])])
        assert H == Region(6, (0, 3, 0), (0, 0, 2))
        assert H.vertices == (pt(0, 0), pt("1/2", 0), pt(0, "1/3"))

    def test_core_raises_on_rings_that_do_not_span_the_plane(self):
        # (0, 0), (1/2, 1/2) and (1, 1) over two denominators
        with pytest.raises(DegenerateHull, match="^all points collinear$"):
            hull_of_rings([(2, [0, 1], [0, 1]), (1, [1], [1])])
        # (1, 2) repeated within a ring and across rings
        with pytest.raises(DegenerateHull, match="^1 distinct points$"):
            hull_of_rings([(1, [1, 1], [2, 2]), (2, [2], [4])])
        with pytest.raises(DegenerateHull, match="^2 distinct points$"):
            hull_of_rings([(3, [0, 3], [0, 0]), (1, [0], [0])])

    def test_square_with_inner_points(self):
        assert list(hull(UNIT_SQUARE + [pt("1/2", "1/2"), pt(0, 0)])) == UNIT_SQUARE

    def test_collinear_raises(self):
        with pytest.raises(DegenerateHull):
            hull([pt(0, 0), pt(1, 1), pt(2, 2)])

    @given(st.lists(points, min_size=3, max_size=12))
    def test_hull_contains_inputs(self, pts):
        try:
            poly = Region.hull_of(pts)
        except DegenerateHull:
            return
        for p in pts:
            assert poly.holds(ratios(p))

    @given(st.lists(points, min_size=3, max_size=10))
    def test_hull_is_strictly_convex(self, pts):
        try:
            vs = hull(pts)
        except DegenerateHull:
            return
        n = len(vs)
        for i in range(n):
            assert reference_orient(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) == 1


class TestRings:
    def test_canonicalize_rotation_and_direction(self):
        base = canonical(UNIT_SQUARE)
        rotated = canonical(UNIT_SQUARE[2:] + UNIT_SQUARE[:2])
        reversed_ = canonical(list(reversed(UNIT_SQUARE)))
        assert base == rotated == reversed_

    def test_canonicalize_strips_collinear_and_duplicates(self):
        noisy = ring_of((0, 0), (0, 0), ("1/2", 0), (1, 0), (1, 1), (0, 1), (0, "1/2"))
        assert canonical(noisy) == UNIT_SQUARE

    def test_zero_area_is_none(self):
        assert canonical(ring_of((0, 0), (1, 1), (2, 2))) is None
        assert canonical(ring_of((0, 0), (1, 0), (0, 0), (1, 0))) is None

    def test_convexity(self):
        assert is_convex_ring(ocd(UNIT_SQUARE))
        assert not is_convex_ring(ocd(ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))))
        assert not is_convex_ring(ocd(ring_of((0, 0), (1, 0), (2, 0), (1, 1))))

    def test_simplicity(self):
        # every rotation and both directions, so each endpoint of each edge
        # pair takes every role in the segment test
        def turns(ring):
            for r in (ring, ring[::-1]):
                for k in range(len(r)):
                    yield r[k:] + r[:k]

        bowtie = ring_of((0, 0), (1, 1), (1, 0), (0, 1))
        assert not is_simple_ring(ocd(bowtie))
        assert is_simple_ring(ocd(UNIT_SQUARE))
        # a square, and a ring with a vertex on the line of a non-adjacent
        # edge, past its end, where the two edges' boxes meet
        for ring in (ring_of((0, 0), (2, 0), (2, 2), (0, 2)),
                     ring_of((0, 0), (2, 0), (4, -1), (3, 0), (1, 1))):
            assert all(is_simple_ring(ocd(r)) for r in turns(ring))
        # a vertex on a non-adjacent edge, the vertex before an edge on that
        # edge, and an edge folded back along another
        for ring in (ring_of((0, 0), (2, 0), (2, 2), (1, 0), (0, 2)),
                     ring_of((0, 0), (2, 0), (2, 2), (0, 2), (1, 0)),
                     ring_of((0, 0), (3, 0), (3, 1), (2, 0), (1, 0), (0, 1))):
            assert not any(is_simple_ring(ocd(r)) for r in turns(ring))

    def test_point_in_ring(self):
        lshape = ocd(ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
        assert point_in_ring(lshape, pt("1/2", "1/2")) == 1
        assert point_in_ring(lshape, pt("3/2", "3/2")) == -1
        assert point_in_ring(lshape, pt(1, "3/2")) == 0
        assert point_in_ring(lshape, pt(2, 1)) == 0
        assert point_in_ring(lshape, pt(3, 0)) == -1

    def test_point_in_ring_ray_through_vertex(self):
        diamond = ocd(ring_of((0, -1), (1, 0), (0, 1), (-1, 0)))
        assert point_in_ring(diamond, ORIGIN) == 1
        assert point_in_ring(diamond, pt("-1/2", 0)) == 1
        assert point_in_ring(diamond, pt(-2, 0)) == -1
        assert point_in_ring(diamond, pt(2, 0)) == -1

    @given(st.one_of(ring_and_point(grid_points), ring_and_point(points),
                     ring_and_point(wide_points)))
    @settings(max_examples=400, deadline=None)
    def test_point_in_ring_matches_two_pass_reference(self, case):
        ring, x = case
        assert point_in_ring(ocd(ring), x) == reference_point_in_ring(ring, x)

    @given(st.lists(points, min_size=3, max_size=9))
    def test_canonicalize_idempotent(self, pts):
        ring = canonical(pts)
        if ring is not None:
            assert canonical(ring) == ring

    # a 5x5 grid makes collinear runs, spikes and repeats common
    @given(st.lists(grid_points, min_size=3, max_size=12))
    @settings(max_examples=300)
    def test_canonicalize_matches_restarting_sweep(self, pts):
        assert canonical(pts) == reference_canonicalize(pts)

    @given(st.lists(wide_points, min_size=3, max_size=9))
    def test_canonicalize_matches_reference_on_wide_coordinates(self, pts):
        assert canonical(pts) == reference_canonicalize(pts)

    @given(st.lists(wide_points, min_size=1, max_size=9))
    def test_area2_matches_fraction_shoelace(self, ring):
        want = sum((cross(ring[i - 1], ring[i]) for i in range(len(ring))), F(0))
        assert ring_area2(ocd(ring)) == want


class TestHalfPlane:
    def test_side_and_boundary(self):
        w = (2, 0, 1)  # x <= 1/2
        ring = ring_of((0, 3), (1, 0), ("1/2", 9))
        assert [sign(level(w, p)) for p in ring] == [-1, 1, 0]
        # the edge (1, 0) -> (1, 1) lies outside; (0, 0) -> (1, 1) crosses
        # the wall at (1/2, 1/2)
        (got,) = clipped(Region.from_ring(ring_of((0, 0), (1, 0), (1, 1))), (w,))
        assert list(got.vertices) == ring_of((0, 0), ("1/2", 0), ("1/2", "1/2"))

    def test_intersection_of_strips(self):
        walls = ((1, 0, 1), (-1, 0, 0), (0, 1, 2), (0, -1, 0))
        box = Region.from_ring(ring_of((-9, -9), (9, -9), (9, 9), (-9, 9)))
        (got,) = clipped(box, walls)
        assert list(got.vertices) == ring_of((0, 0), (1, 0), (1, 2), (0, 2))


class TestConvexPolygon:
    def test_locate(self):
        poly = Region.hull_of(UNIT_SQUARE)
        assert poly.locate(pt("1/2", "1/2")) == 1
        assert poly.locate(pt(1, "1/2")) == 0
        assert poly.locate(pt(2, 0)) == -1

    def test_area_and_diameter(self):
        poly = Region.hull_of(UNIT_SQUARE)
        assert poly.area2 == 2
        assert poly.diameter_sq == 2

    def test_projection(self):
        poly = Region.hull_of(UNIT_SQUARE)
        assert project(poly, pt(2, "1/2")) == pt(1, "1/2")
        assert project(poly, pt(3, 3)) == pt(1, 1)
        assert project(poly, pt("1/3", "2/3")) == pt("1/3", "2/3")

    @given(points, st.lists(points, min_size=3, max_size=8))
    @settings(max_examples=60)
    def test_projection_is_nearest(self, x, pts):
        try:
            poly = Region.hull_of(pts)
        except DegenerateHull:
            return
        y = project(poly, x)
        assert poly.holds(ratios(y))
        for v in poly.vertices:
            assert dist_sq(x, y) <= dist_sq(x, v)


def edges(poly):
    """The edges (u, v) of a polygon's ring, in order."""
    vs = poly.vertices
    return list(zip(vs, vs[1:] + vs[:1]))


def reference_locate(poly, p):
    """locate on a convex polygon from Fraction cross products."""
    on_edge = False
    for u, v in edges(poly):
        s = cross(v - u, p - u)
        if s < 0:
            return -1
        if s == 0:
            on_edge = True
    return 0 if on_edge else 1


def reference_project(poly, x):
    """project_convex_ring in Fraction arithmetic: clamp the foot on every edge,
    the first edge with a strictly smaller distance wins."""
    if reference_locate(poly, x) >= 0:
        return x
    best = best_d = None
    for u, v in edges(poly):
        d = v - u
        t = min(max(dot(x - u, d) / d.norm_sq(), F(0)), F(1))
        cand = u + scale(d, t)
        dd = dist_sq(x, cand)
        if best_d is None or dd < best_d:
            best, best_d = cand, dd
    return best


@st.composite
def polygon_and_point(draw, coord_strategy):
    """A convex polygon and a point that is free, a vertex, on an edge, or
    on an edge's line beyond the edge."""
    pts = draw(st.lists(st.builds(Point, coord_strategy, coord_strategy),
                        min_size=3, max_size=8))
    try:
        poly = Region.hull_of(pts)
    except DegenerateHull:
        assume(False)
    i = draw(st.integers(0, len(poly) - 1))
    u, v = poly.vertices[i], poly.vertices[(i + 1) % len(poly)]
    kind = draw(st.sampled_from(("free", "vertex", "edge", "edge-line")))
    if kind == "free":
        x = draw(st.builds(Point, coord_strategy, coord_strategy))
    elif kind == "vertex":
        x = u
    else:
        lo, hi = (0, 1) if kind == "edge" else (-2, 3)
        t = draw(st.one_of(st.fractions(lo, hi, max_denominator=8),
                           st.integers(1, 2**128).flatmap(
                               lambda d: st.integers(lo * d, hi * d).map(
                                   lambda n: F(n, d)))))
        x = u + scale(v - u, t)
    return poly, x


class TestConvexPolygonIntegerKernel:
    @given(st.one_of(polygon_and_point(coord), polygon_and_point(wide_coord)))
    @settings(max_examples=300, deadline=None)
    def test_locate_matches_fraction_formula(self, case):
        poly, x = case
        assert poly.locate(x) == reference_locate(poly, x)
        assert poly.holds(ratios(x)) == (reference_locate(poly, x) >= 0)

    @given(st.one_of(polygon_and_point(coord), polygon_and_point(wide_coord)))
    @settings(max_examples=300, deadline=None)
    def test_project_convex_matches_fraction_formula(self, case):
        poly, x = case
        assert project(poly, x) == reference_project(poly, x)


def convex_sum(p: Region, q: Region) -> Region:
    """The sum of two convex polygons by the one Minkowski walk."""
    return minkowski_convex_star(p, Region(*q._scaled))


class TestMinkowski:
    def test_square_plus_triangle_pentagon(self):
        sq = Region.hull_of(UNIT_SQUARE)
        tri = Region.hull_of(ring_of((0, 0), (1, 0), (0, 1)))
        got = convex_sum(sq, tri)
        assert list(got.vertices) == ring_of((0, 0), (2, 0), (2, 1), (1, 2), (0, 2))

    @given(st.lists(points, min_size=3, max_size=7),
           st.lists(points, min_size=3, max_size=7))
    @settings(max_examples=60)
    def test_matches_hull_of_pairwise_sums(self, ap, bp):
        try:
            a = Region.hull_of(ap)
            b = Region.hull_of(bp)
        except DegenerateHull:
            return
        got = convex_sum(a, b)
        brute = hull([u + v for u in a.vertices for v in b.vertices])
        assert list(got.vertices) == list(brute)


class TestRegion:
    def test_from_ring_canonicalizes(self):
        r = Region.from_ring(list(reversed(UNIT_SQUARE)))
        assert list(r.vertices) == UNIT_SQUARE
        assert r.area2 == 2

    def test_rejects_self_crossing(self):
        with pytest.raises(NotSimple):
            Region.from_ring(ring_of((0, 0), (3, 0), (0, 1), (1, 1)))

    def test_rejects_zero_area(self):
        with pytest.raises(DegenerateRegion):
            Region.from_ring(ring_of((0, 0), (1, 0), (2, 0)))

    def test_kernel_must_see_everything(self):
        lshape = Region.from_ring(ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
        assert lshape.kernel_contains(pt("1/2", "1/2"))
        assert not lshape.kernel_contains(pt("3/2", "1/2"))

    def test_equal_canonical(self):
        a = Region.from_ring(UNIT_SQUARE)
        b = Region.from_ring(UNIT_SQUARE[1:] + UNIT_SQUARE[:1])
        assert equal_canonical(a, b)
        # a Region is its ring: rotated and reversed copies, and the radial
        # envelope of the ring around a point of its kernel, are one value
        ring = ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        lshape = Region.from_ring(ring)
        center = pt("1/2", "1/2")
        copies = [Region.from_ring(ring[2:] + ring[:2]),
                  Region.from_ring(ring[::-1]),
                  cycle_envelope([star_cycle(lshape._scaled, center)], center)]
        for c in copies:
            assert c == lshape and hash(c) == hash(lshape) and equal_canonical(c, lshape)


class TestKernel:
    def test_membership_test_agrees(self):
        lshape = ocd(ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
        assert star_kernel_contains(lshape, pt(1, 1))
        assert star_kernel_contains(lshape, pt("1/2", "1/2"))
        assert not star_kernel_contains(lshape, pt("3/2", "1/2"))


class TestMisc:
    def test_diameter(self):
        assert diameter_sq_of(ocd(UNIT_SQUARE)) == 2
        assert diameter_sq_of(ocd([pt("1/3", 0)])) == 0


# ---------------------------------------------------------------------------
# the ring layer on integers against Fraction references


def reference_on_segment(a, b, p) -> bool:
    return (reference_orient(a, b, p) == 0 and min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def reference_segments_touch(p1, p2, q1, q2) -> bool:
    d1, d2 = reference_orient(q1, q2, p1), reference_orient(q1, q2, p2)
    d3, d4 = reference_orient(p1, p2, q1), reference_orient(p1, p2, q2)
    if d1 and d2 and d3 and d4 and (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
        return True
    return (reference_on_segment(q1, q2, p1) or reference_on_segment(q1, q2, p2)
            or reference_on_segment(p1, p2, q1) or reference_on_segment(p1, p2, q2))


def reference_is_simple(ring) -> bool:
    """is_simple_ring in Fractions: no two edges that are not neighbours
    touch."""
    n = len(ring)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if reference_segments_touch(ring[i], ring[(i + 1) % n],
                                        ring[j], ring[(j + 1) % n]):
                return False
    return True


def reference_minkowski(p, q):
    """The Minkowski sum of convex polygons in Fraction points: the
    edge-vector merge from both lowest vertices, then the restarting
    canonical sweep."""
    def bottom_start(vs):
        k = min(range(len(vs)), key=lambda i: (vs[i].y, vs[i].x))
        return list(vs[k:]) + list(vs[:k])

    def half(d):
        return 0 if (d.y > 0 or (d.y == 0 and d.x > 0)) else 1

    a, b = bottom_start(p.vertices), bottom_start(q.vertices)
    ea = [a[(i + 1) % len(a)] - a[i] for i in range(len(a))]
    eb = [b[(i + 1) % len(b)] - b[i] for i in range(len(b))]
    out = [a[0] + b[0]]
    i = j = 0
    while i < len(ea) or j < len(eb):
        if i == len(ea):
            step, j = eb[j], j + 1
        elif j == len(eb):
            step, i = ea[i], i + 1
        else:
            da, db = ea[i], eb[j]
            cr = cross(da, db)
            if half(da) != half(db):
                take_a = half(da) < half(db)
            elif cr == 0:
                step, i, j = da + db, i + 1, j + 1
                out.append(out[-1] + step)
                continue
            else:
                take_a = cr > 0
            if take_a:
                step, i = da, i + 1
            else:
                step, j = db, j + 1
        out.append(out[-1] + step)
    return reference_canonicalize(out)


def _angle_sorted(pts):
    """The points as a ring around their centroid (floats only order them)."""
    cx = sum(float(p.x) for p in pts) / len(pts)
    cy = sum(float(p.y) for p in pts) / len(pts)
    return sorted(pts, key=lambda p: math.atan2(float(p.y) - cy, float(p.x) - cx))


def _on_line(u, v, t):
    return u + scale(v - u, t)


unit_t = st.one_of(st.fractions(0, 1, max_denominator=6),
                   st.integers(1, 2**128).flatmap(
                       lambda d: st.integers(0, d).map(lambda n: F(n, d))))


@st.composite
def contact_rings(draw, point_strategy):
    """A ring that is a convex hull, free, ordered around its centroid, or
    ordered and then given a vertex on an edge it does not end (the edge
    before it included) or on that edge's line, or an edge along a
    non-adjacent edge's line (a collinear overlap)."""
    pts = draw(st.lists(point_strategy, min_size=3, max_size=9))
    kind = draw(st.sampled_from(("hull", "free", "ordered", "vertex-on-edge",
                                 "vertex-on-line", "overlap")))
    if kind == "hull":
        try:
            return list(hull(pts))
        except DegenerateHull:
            return pts
    if kind == "free":
        return pts
    ring = _angle_sorted(pts)
    n = len(ring)
    if kind == "ordered" or n < 5:
        return ring
    i = draw(st.integers(0, n - 1))
    u, v = ring[i], ring[(i + 1) % n]
    j = (i + draw(st.integers(2, n - 3 if kind == "overlap" else n - 1))) % n
    if kind == "vertex-on-edge":
        ring[j] = _on_line(u, v, draw(unit_t))
    elif kind == "vertex-on-line":
        ring[j] = _on_line(u, v, draw(unit_t) * 2 - F(1, 2))
    else:
        ring[j] = _on_line(u, v, draw(unit_t) * 2 - F(1, 2))
        ring[(j + 1) % n] = _on_line(u, v, draw(unit_t) * 2 - F(1, 2))
    return ring


class TestRingIntegerKernel:
    @given(st.one_of(contact_rings(grid_points), contact_rings(points),
                     contact_rings(wide_points)))
    @settings(max_examples=400, deadline=None)
    def test_is_simple_ring_matches_fraction_reference(self, ring):
        assert is_simple_ring(ocd(ring)) == reference_is_simple(ring)
        canon = canonical(ring)
        if canon is not None:
            assert is_simple_ring(ocd(canon)) == reference_is_simple(canon)

    @given(st.lists(st.one_of(points, wide_points), min_size=0, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_diameter_matches_fraction_reference(self, pts):
        want = max(((p - q).norm_sq() for p in pts for q in pts), default=F(0))
        assert diameter_sq_of(ocd(pts)) == want
        try:
            poly = Region.hull_of(pts)
        except DegenerateHull:
            return
        assert poly.diameter_sq == max((p - q).norm_sq() for p in poly.vertices
                                       for q in poly.vertices)

    @given(st.lists(st.one_of(points, wide_points), min_size=3, max_size=7),
           st.lists(st.one_of(points, wide_points), min_size=3, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_minkowski_matches_fraction_reference(self, ap, bp):
        try:
            a = Region.hull_of(ap)
            b = Region.hull_of(bp)
        except DegenerateHull:
            return
        got = list(convex_sum(a, b).vertices)
        assert got == reference_minkowski(a, b)
        assert got == list(hull([u + v for u in a.vertices for v in b.vertices]))

    @given(st.one_of(contact_rings(grid_points), contact_rings(wide_points)))
    @settings(max_examples=200, deadline=None)
    def test_convexity_matches_fraction_reference(self, ring):
        n = len(ring)
        assert is_convex_ring(ocd(ring)) == all(
            reference_orient(ring[i], ring[(i + 1) % n], ring[(i + 2) % n]) > 0
            for i in range(n))

    @given(st.one_of(ring_and_point(grid_points), ring_and_point(wide_points)))
    @settings(max_examples=200, deadline=None)
    def test_kernel_membership_matches_fraction_reference(self, case):
        ring, x = case
        n = len(ring)
        assert star_kernel_contains(ocd(ring), x) == all(
            reference_orient(ring[i], ring[(i + 1) % n], x) >= 0 for i in range(n))


class TestCanonicalIntegers:
    @given(st.one_of(contact_rings(grid_points), contact_rings(points),
                     contact_rings(wide_points)),
           st.integers(1, 2**64))
    @settings(max_examples=300, deadline=None)
    def test_integer_form_is_unique(self, ring, k):
        """The ring over any multiple m*k of its common denominator builds the
        region from_ring builds, in lowest terms, with the reference's
        canonical vertices; an invalid ring fails the same way."""
        m, xs, ys = ocd(ring)
        over_mk = (m * k, [x * k for x in xs], [y * k for y in ys])
        try:
            want = Region.from_ring(ring)
        except GeometryError as exc:
            with pytest.raises(type(exc)):
                Region.from_integers(*over_mk)
            return
        got = Region.from_integers(*over_mk)
        assert got == want and equal_canonical(got, want)
        assert math.gcd(got.m, *got.xs, *got.ys) == 1
        assert list(got.vertices) == reference_canonicalize(ring)


# ---------------------------------------------------------------------------
# the kernels that scaled the whole ring per query, kept as references for
# the ones that scale each vertex as they reach it


def ring_locate(xs, ys, px, py):
    """The crossing rule on a ring and a point already on one scale per
    axis: the integer core that every membership test called."""
    inside = False
    for i in range(len(xs)):
        uy, vy = ys[i - 1], ys[i]
        if (py < uy and py < vy) or (py > uy and py > vy):
            continue
        ux, vx = xs[i - 1], xs[i]
        side = (vx - ux) * (py - uy) - (vy - uy) * (px - ux)
        if side == 0 and (ux <= px <= vx or vx <= px <= ux):
            return 0
        if (uy > py) != (vy > py):
            if (side > 0) if vy > uy else (side < 0):
                inside = not inside
    return 1 if inside else -1


def scaled_copy(scaled, q):
    """A ring over its common denominator m and a point q, both on integers:
    the ring's x axis scaled by q's x denominator and its y axis by its y
    denominator, q scaled by m, each coordinate of the ring copied."""
    m, xs, ys = scaled
    xn, xd, yn, yd = q
    return [x * xd for x in xs], [y * yd for y in ys], xn * m, yn * m


def scaled_copy_kernel_contains(scaled, p):
    """star_kernel_contains on the scaled copy of the ring."""
    xs, ys, px, py = scaled_copy(scaled, ratios(p))
    for i in range(len(xs)):
        ux, uy = xs[i - 1], ys[i - 1]
        if (xs[i] - ux) * (py - uy) < (ys[i] - uy) * (px - ux):
            return False
    return True


def scaled_copy_boundary_locate(xs, ys, X, Y, d):
    """_Boundary.locate with the ring copied onto the point's scale d."""
    if X < min(xs) * d or X > max(xs) * d or Y < min(ys) * d or Y > max(ys) * d:
        return -1
    return ring_locate([x * d for x in xs], [y * d for y in ys], X, Y)


def every_edge_project(scaled, q):
    """project_convex_ring as one loop over every edge: the inside test
    (no cross(d, w) negative) and the clamped foot of each edge, the first
    strictly nearer edge winning, both over the lcm of the denominators."""
    m0, xs, ys = scaled
    xn, xd, yn, yd = q
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
        return q
    i, t, dd = best
    j = (i + 1) % n
    ux, uy = xs[i] * k, ys[i] * k
    fx = F(ux * dd + (xs[j] * k - ux) * t, m * dd)
    fy = F(uy * dd + (ys[j] * k - uy) * t, m * dd)
    return fx.numerator, fx.denominator, fy.numerator, fy.denominator


@st.composite
def convex_and_point(draw, coord_strategy):
    """polygon_and_point's polygon and point, the point moved level with
    a vertex half of the time."""
    poly, x = draw(polygon_and_point(coord_strategy))
    if draw(st.booleans()):
        x = Point(x.x, draw(st.sampled_from(poly.vertices)).y)
    return poly, x


class TestUnscaledKernels:
    @given(st.one_of(ring_and_point(grid_points), ring_and_point(points),
                     ring_and_point(wide_points)))
    @settings(max_examples=400, deadline=None)
    def test_ratios_in_ring_matches_the_scaled_copy(self, case):
        ring, x = case
        scaled, q = ocd(ring), ratios(x)
        assert ratios_in_ring(scaled, q) == ring_locate(*scaled_copy(scaled, q))

    @given(st.one_of(ring_and_point(grid_points), ring_and_point(wide_points)))
    @settings(max_examples=300, deadline=None)
    def test_kernel_membership_matches_the_scaled_copy(self, case):
        ring, x = case
        scaled = ocd(ring)
        assert star_kernel_contains(scaled, x) == scaled_copy_kernel_contains(scaled, x)

    @given(st.one_of(ring_and_point(grid_points), ring_and_point(wide_points)),
           st.integers(1, 2**128))
    @settings(max_examples=300, deadline=None)
    def test_boundary_locate_matches_the_scaled_copy(self, case, k):
        """The point as (X / d, Y / d) in units of the ring's 1 / m, over
        k times the least d that holds it."""
        ring, x = case
        m, xs, ys = ocd(ring)
        xm, ym = x.x * m, x.y * m
        d = lcm(xm.denominator, ym.denominator) * k
        X, Y = int(xm * d), int(ym * d)
        assert _Boundary(xs, ys).locate(X, Y, d) == \
            scaled_copy_boundary_locate(xs, ys, X, Y, d)

    @given(st.one_of(convex_and_point(coord), convex_and_point(wide_coord)))
    @settings(max_examples=400, deadline=None)
    def test_containment_first_projection_matches_every_edge_loop(self, case):
        poly, x = case
        q = ratios(x)
        want = every_edge_project(poly._scaled, q)
        assert project_convex_ring(poly._scaled, q) == want
        if want != q:
            assert nearest_on_boundary(poly._scaled, q) == want
