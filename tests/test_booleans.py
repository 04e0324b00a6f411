"""Clip, union, containment, and the radial star-union cross-check."""
import itertools
import math
from fractions import Fraction as F
from functools import cmp_to_key
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from errdiff.booleans import (
    _boundaries,
    _pieces,
    subset,
    subset_witness,
    union_one_region,
    union_rings,
)
from errdiff.geometry import (
    ORIGIN,
    DisconnectedUnion,
    GeometryError,
    MultiComponent,
    NotStarAtCenter,
    Point,
    Region,
    is_simple_ring,
    over_common_denominator,
    point_in_ring,
    pt,
    ring_area2,
)
import errdiff.starunion
from errdiff.starunion import (
    _arc,
    _crossing,
    _dir_cmp,
    _Edge,
    _limit,
    cycle_envelope,
    star_cycle,
)
from test_geometry import (
    canonical, clip_components, clipped, cross, dot, hull, level, reference_orient,
    rotated, scale, wall,
)

UNIT_SQUARE = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]


def ring_of(*coords):
    return [pt(x, y) for x, y in coords]


def poly(ring):
    """The ring of Points as a polygon over its common denominator, in the
    order given: the form the boolean kernels take."""
    return Region(*over_common_denominator(ring))


def unite(rings):
    """union_rings on Point rings, each cycle back as a Point ring."""
    return [list(R.vertices) for R in union_rings([poly(r) for r in rings])]


def witness(a_ring, b_ring):
    return subset_witness(poly(a_ring), poly(b_ring))


def contained(a_ring, b_ring):
    return subset(poly(a_ring), poly(b_ring))


def union_star(parts, center):
    """The union of polygons that keep center in their kernels: one radial
    envelope of their cycles around it."""
    return cycle_envelope([star_cycle(part._scaled, center) for part in parts],
                          center)


def star(rings, center):
    return union_star([poly(r) for r in rings], center)


def locate(ring, p):
    return point_in_ring(over_common_denominator(ring), p)


def least_rotation(ring):
    """The rotation of a Point ring with the least vertex keys: the one form
    of a ring that meets itself at its smallest vertex, whose canonical
    form depends on the rotation it starts from."""
    return min((ring[i:] + ring[:i] for i in range(len(ring))),
               key=lambda r: [p.key() for p in r])


def clip(ring, *walls):
    """clip_components on a Point ring, each component back as a Point ring
    in canonical form (least_rotation), in vertex-key order."""
    scaled = over_common_denominator(ring)
    comps = [least_rotation(canonical([Point(F(x, m), F(y, m)) for x, y in zip(xs, ys)]))
             for m, xs, ys in clip_components(scaled, walls)]
    return sorted(comps, key=lambda r: [p.key() for p in r])


def split_points(p1, p2, q1, q2):
    """The points where the integer splitter cuts segment p1 -> p2 against
    segment q1 -> q2, ends included, in order from p1."""
    L, (P, Q) = _boundaries((poly([p1, p2]), poly([q1, q2])))
    pieces = _pieces(P.edges[0], (Q,))
    ends = [p for p, _, _ in pieces] + [pieces[-1][1]]
    return [Point(F(x, d * L), F(y, d * L)) for x, y, d in ends]


class TestSegSeg:
    def test_proper_crossing(self):
        got = split_points(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
        assert got == [pt(0, 0), pt(1, 1), pt(2, 2)]

    def test_t_junction(self):
        got = split_points(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 5))
        assert got == [pt(0, 0), pt(1, 0), pt(2, 0)]

    def test_shared_endpoint(self):
        got = split_points(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 3))
        assert got == [pt(0, 0), pt(1, 0)]

    def test_collinear_overlap(self):
        got = split_points(pt(0, 0), pt(3, 0), pt(1, 0), pt(5, 0))
        assert got == [pt(0, 0), pt(1, 0), pt(3, 0)]

    def test_collinear_disjoint(self):
        assert split_points(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0)) == [pt(0, 0), pt(1, 0)]

    def test_skew_disjoint(self):
        assert split_points(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)) == [pt(0, 0), pt(1, 0)]

    def test_denominators_differ(self):
        got = split_points(pt(0, 0), pt(1, 1), pt("1/3", 0), pt(0, "1/2"))
        assert got == [pt(0, 0), pt("1/5", "1/5"), pt(1, 1)]


class TestClip:
    def test_square_bisector(self):
        hp = (2, 0, 1)  # x <= 1/2
        got = clip(UNIT_SQUARE, hp)
        assert got == [ring_of((0, 0), ("1/2", 0), ("1/2", 1), (0, 1))]

    def test_no_cut(self):
        hp = (1, 0, 5)
        assert clip(UNIT_SQUARE, hp) == [UNIT_SQUARE]

    def test_empty(self):
        hp = (1, 0, -1)
        assert clip(UNIT_SQUARE, hp) == []

    def test_tangent_vertex_keeps_all(self):
        diamond = canonical(ring_of((0, -1), (1, 0), (0, 1), (-1, 0)))
        hp = (0, 1, 1)  # y <= 1, touches the top vertex
        scaled = over_common_denominator(diamond)
        ((m, xs, ys),) = clip_components(scaled, (hp,))
        assert m == scaled[0] and xs is scaled[1] and ys is scaled[2]

    def test_diamond_lower_half(self):
        diamond = ring_of((0, -1), (1, 0), (0, 1), (-1, 0))
        hp = (0, 1, 0)  # y <= 0
        got = clip(diamond, hp)
        assert got == [ring_of((-1, 0), (0, -1), (1, 0))]

    def test_notch_disconnects(self):
        notched = ring_of((0, 0), (1, 0), (1, 2), (2, 2), (2, 0),
                          (3, 0), (3, 3), (0, 3))
        hp = (0, 1, 1)  # y <= 1
        got = clip(notched, hp)
        assert got == [
            ring_of((0, 0), (1, 0), (1, 1), (0, 1)),
            ring_of((2, 0), (3, 0), (3, 1), (2, 1)),
        ]
        assert len(clipped(Region.from_ring(notched), (hp,))) == 2

    def test_region_clip(self):
        region = Region.from_ring(UNIT_SQUARE)
        hp = (0, 3, 1)  # y <= 1/3
        (got,) = clipped(region, (hp,))
        assert list(got.vertices) == ring_of((0, 0), (1, 0), (1, "1/3"), (0, "1/3"))
        below = (0, 1, -1)
        assert clipped(region, (below,)) == []


class TestSubset:
    def test_nested_squares(self):
        inner = ring_of(("1/4", "1/4"), ("3/4", "1/4"), ("3/4", "3/4"), ("1/4", "3/4"))
        assert contained(inner, UNIT_SQUARE)
        assert not contained(UNIT_SQUARE, inner)

    def test_equal_rings(self):
        assert contained(UNIT_SQUARE, UNIT_SQUARE)

    def test_l_in_square(self):
        lshape = ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        big = ring_of((0, 0), (2, 0), (2, 2), (0, 2))
        assert contained(lshape, big)
        assert not contained(big, lshape)

    def test_witness_lies_in_a_not_b(self):
        lshape = ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        big = ring_of((0, 0), (2, 0), (2, 2), (0, 2))
        w = witness(big, lshape)
        assert w is not None
        assert locate(big, w) >= 0
        assert locate(lshape, w) < 0

    def test_overlap_without_containment(self):
        shifted = [p + pt("1/2", "1/2") for p in UNIT_SQUARE]
        assert not contained(UNIT_SQUARE, shifted)
        assert not contained(shifted, UNIT_SQUARE)

    def test_subset_through_shared_boundary(self):
        half = ring_of((0, 0), (1, 0), (1, "1/2"), (0, "1/2"))
        assert contained(half, UNIT_SQUARE)

    def test_witness_is_an_edge_midpoint(self):
        # every vertex of the square lies on the notched square's boundary;
        # the top edge, split at the notch, has its middle piece outside
        square = ring_of((0, 0), (2, 0), (2, 2), (0, 2))
        notched = ring_of((0, 0), (2, 0), (2, 2), ("3/2", 2), (1, 1), ("1/2", 2), (0, 2))
        assert all(locate(notched, v) >= 0 for v in square)
        w = witness(square, notched)
        assert w == pt(1, 2)
        assert w == reference_subset_witness(square, notched)
        # two notches in the top edge, which runs from (4, 2) to (0, 2): the
        # witness is the midpoint of the first piece outside along it
        wide = ring_of((0, 0), (4, 0), (4, 2), (0, 2))
        twice = ring_of((0, 0), (4, 0), (4, 2), ("7/2", 2), (3, 1), ("5/2", 2),
                        ("3/2", 2), (1, 1), ("1/2", 2), (0, 2))
        assert witness(wide, twice) == reference_subset_witness(wide, twice) == pt(3, 2)


class TestUnion:
    def test_idempotent(self):
        got = unite([UNIT_SQUARE, UNIT_SQUARE])
        assert got == [UNIT_SQUARE]

    def test_overlapping_squares(self):
        b = ring_of(("1/2", 0), ("3/2", 0), ("3/2", 1), ("1/2", 1))
        got = unite([UNIT_SQUARE, b])
        assert got == [ring_of((0, 0), ("3/2", 0), ("3/2", 1), (0, 1))]

    def test_edge_adjacent_squares_fuse(self):
        b = ring_of((1, 0), (2, 0), (2, 1), (1, 1))
        got = unite([UNIT_SQUARE, b])
        assert got == [ring_of((0, 0), (2, 0), (2, 1), (0, 1))]

    def test_l_from_two_rectangles(self):
        a = ring_of((0, 0), (2, 0), (2, 1), (0, 1))
        b = ring_of((0, 0), (1, 0), (1, 2), (0, 2))
        got = unite([a, b])
        assert got == [ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))]

    def test_partial_shared_edge_opposite_sides(self):
        a = ring_of((0, 0), (2, 0), (2, 1), (0, 1))
        b = ring_of((1, -1), (3, -1), (3, 0), (1, 0))
        got = unite([a, b])
        assert len(got) == 1
        ring = got[0]
        assert is_simple_ring(over_common_denominator(ring))
        assert ring_area2(over_common_denominator(ring)) == 8
        for src in (a, b):
            assert contained(src, ring)

    def test_disjoint_parts_are_separate_cycles(self):
        b = [p + pt(5, 5) for p in UNIT_SQUARE]
        got = unite([UNIT_SQUARE, b])
        assert len(got) == 2

    def test_corner_touch_strict_raises(self):
        b = [p + pt(1, 1) for p in UNIT_SQUARE]
        with pytest.raises(DisconnectedUnion):
            unite([UNIT_SQUARE, b])

    def test_hole_raises(self):
        frame = [
            ring_of((0, 0), (3, 0), (3, 1), (0, 1)),
            ring_of((2, 0), (3, 0), (3, 3), (2, 3)),
            ring_of((0, 2), (3, 2), (3, 3), (0, 3)),
            ring_of((0, 0), (1, 0), (1, 3), (0, 3)),
        ]
        with pytest.raises(DisconnectedUnion):
            unite(frame)

    def test_union_one_region_single(self):
        b = [p + pt("1/2", 0) for p in UNIT_SQUARE]
        got = union_one_region([poly(UNIT_SQUARE), poly(b)])
        assert list(got.vertices) == ring_of((0, 0), ("3/2", 0), ("3/2", 1), (0, 1))

    def test_union_one_region_rejects_disjoint(self):
        b = [p + pt(9, 9) for p in UNIT_SQUARE]
        with pytest.raises(DisconnectedUnion):
            union_one_region([poly(UNIT_SQUARE), poly(b)])


class TestStarUnion:
    def test_quadrant_squares(self):
        h = F(1, 2)
        quads = []
        for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            quads.append(canonical(
                [pt(0, 0), pt(sx * h, 0), pt(sx * h, sy * h), pt(0, sy * h)]))
        got = star(quads, ORIGIN)
        assert list(got.vertices) == ring_of(
            ("-1/2", "-1/2"), ("1/2", "-1/2"), ("1/2", "1/2"), ("-1/2", "1/2"))

    def test_two_adjacent_wedges_fuse_collinear_caps(self):
        a = canonical(ring_of((0, 0), (1, 0), (1, 1)))
        b = canonical(ring_of((0, 0), (1, 1), (0, 1)))
        got = star([a, b], ORIGIN)
        assert list(got.vertices) == UNIT_SQUARE

    def test_opposite_wedges_pinch(self):
        a = canonical(ring_of((0, 0), (1, 0), (1, 1)))
        b = canonical(ring_of((0, 0), (-1, 0), (-1, -1)))
        with pytest.raises(DisconnectedUnion):
            star([a, b], ORIGIN)

    def test_center_must_be_in_kernel(self):
        with pytest.raises(NotStarAtCenter):
            star([UNIT_SQUARE], pt(5, 5))

    def test_off_center_union(self):
        c = pt("1/4", "1/4")
        b = ring_of((0, 0), (2, 0), (2, "1/2"), (0, "1/2"))
        got = star([UNIT_SQUARE, b], c)
        assert list(got.vertices) == ring_of(
            (0, 0), (2, 0), (2, "1/2"), (1, "1/2"), (1, 1), (0, 1))

    def test_single_part_round_trip(self):
        lshape = ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        got = star([lshape], pt("1/2", "1/2"))
        assert list(got.vertices) == lshape

    def test_nested_parts(self):
        small = ring_of(("-1/4", "-1/4"), ("1/4", "-1/4"), ("1/4", "1/4"), ("-1/4", "1/4"))
        big = ring_of((-1, -1), (1, -1), (1, 1), (-1, 1))
        got = star([small, big], ORIGIN)
        assert list(got.vertices) == big
        got2 = star([big, small], ORIGIN)
        assert list(got2.vertices) == big


# random star polygons around the origin: distinct directions with the four
# axes always present, so angular gaps stay below a half turn
def _direction_pool():
    seen = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            if (a, b) == (0, 0):
                continue
            g = math.gcd(a, b)
            seen.add((a // g, b // g))
    return sorted(seen, key=lambda d: math.atan2(d[1], d[0]))


DIR_POOL = _direction_pool()
AXIS_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))
AXES = {DIR_POOL.index(d) for d in AXIS_DIRS}
radii = st.fractions(min_value=F(1, 2), max_value=4, max_denominator=6)
# radii in [1/2, 4] with denominators up to 2**128, the width of the
# coordinates the operator chains run on
wide_radii = st.integers(1, 2**128).flatmap(
    lambda d: st.integers(-(-d // 2), 4 * d).map(lambda n: F(n, d)))
# offsets whose coordinates both have denominator 3
thirds = st.integers(-8, 8).filter(lambda n: n % 3).map(lambda n: F(n, 3))
offsets = st.builds(Point, thirds, thirds)


@st.composite
def star_rings(draw, radius=radii):
    extra = draw(st.sets(st.integers(0, len(DIR_POOL) - 1), max_size=8))
    idxs = sorted(AXES | extra)
    ring = []
    for i in idxs:
        r = draw(radius)
        ring.append(pt(DIR_POOL[i][0] * r, DIR_POOL[i][1] * r))
    out = canonical(ring)
    assert out is not None
    return out


def _t_at(u: Point, a: Point, b: Point) -> F:
    """Reference: the line through a and b meets the ray u at _t_at * u."""
    return cross(a, b) / cross(u, b - a)


def _triple(p: Point) -> tuple[int, int, int]:
    """p as an integer triple (x, y, d) with p = (x / d, y / d)."""
    d = math.lcm(p.x.denominator, p.y.denominator)
    return (p.x.numerator * (d // p.x.denominator),
            p.y.numerator * (d // p.y.denominator), d)


def _direction(p: Point) -> tuple[int, int]:
    """The reduced integer direction of p, not the origin, from the origin."""
    x, y, _ = _triple(p)
    g = math.gcd(x, y)
    return x // g, y // g


def _reduced_point(t: tuple[int, int, int]) -> Point:
    """The point of a triple the merge returns, which must be reduced."""
    x, y, d = t
    assert d > 0 and math.gcd(x, y, d) == 1
    return Point(F(x, d), F(y, d))


class TestUnionCrossCheck:
    @given(star_rings(), star_rings(), offsets)
    @settings(max_examples=50, deadline=None)
    def test_star_matches_general(self, a, b, offset):
        """Around the origin, and with both rings and the center moved by
        an offset with denominator 3."""
        for shift in (ORIGIN, offset):
            sa, sb = [v + shift for v in a], [v + shift for v in b]
            cycles = unite([sa, sb])
            assert len(cycles) == 1
            assert list(star([sa, sb], shift).vertices) == cycles[0]

    @given(star_rings(), star_rings())
    @settings(max_examples=50, deadline=None)
    def test_union_contains_parts_and_no_more(self, a, b):
        u = star([a, b], ORIGIN).vertices
        assert contained(a, u) and contained(b, u)
        for v in u:
            assert locate(a, v) >= 0 or locate(b, v) >= 0
        for x in range(-4, 5, 2):
            for y in range(-4, 5, 2):
                p = pt(x, y)
                in_union = locate(u, p) >= 0
                in_parts = locate(a, p) >= 0 or locate(b, p) >= 0
                assert in_union == in_parts

    @given(star_rings(), star_rings(), star_rings())
    @settings(max_examples=25, deadline=None)
    def test_three_way_associativity(self, a, b, c):
        left = union_star([star([a, b], ORIGIN), poly(c)], ORIGIN)
        right = union_star([poly(a), star([b, c], ORIGIN)], ORIGIN)
        assert list(left.vertices) == list(right.vertices)


# three edges, one from each ring, cross at (2, 1); the union is
# (-1, -1), (3, -1), (3, 0), (2, 1), (2, 3), (-1, 3)
THREE_AT_ONE_POINT = [
    ring_of((-1, -1), (3, -1), (3, 0), (1, 2), (-1, 2)),
    ring_of((-1, -1), ("5/2", -1), ("5/2", 0), ("3/2", 2), (-1, 2)),
    ring_of((-1, -1), (2, -1), (2, 3), (-1, 3)),
]


class TestWideCoordinates:
    @given(st.lists(st.one_of(star_rings(), star_rings(wide_radii)),
                    min_size=2, max_size=4))
    @example(THREE_AT_ONE_POINT)
    @settings(max_examples=30, deadline=None)
    def test_star_matches_general(self, rings):
        """Two to four parts, narrow and wide, through one envelope."""
        cycles = unite(rings)
        assert len(cycles) == 1
        assert list(star(rings, ORIGIN).vertices) == cycles[0]

    @given(star_rings(wide_radii), star_rings(wide_radii))
    # (0, -1) lies on the edge from (-2, -3) to (1, 0) of both rings
    @example(ring_of((-3, -1), (-2, -3), (1, 0), (0, 1), (-1, 0)),
             ring_of((-3, -1), (-2, -1), (-2, -3), (1, 0), (0, 1), (-1, 0)))
    @settings(max_examples=30, deadline=None)
    def test_integer_t_comparison_matches_fractions(self, ra, rb):
        """Every entry (e, r_u, r_w) that the sweep of the two rings hands
        _arc holds r > 0 at both ends of its arc, and n / r is the Fraction
        reference _t_at there, so cross-multiplied r's rank the lines as
        _t_at does; _limit builds the reference point on every direction an
        edge covers; and _crossing builds the point that line_cross_point
        finds, with its direction, for every two lines that are not
        parallel."""
        def edges(ring):
            return [(a, b, _Edge(_triple(a), _triple(b), -1, -1))
                    for a, b in zip(ring[-1:] + ring[:-1], ring)]

        arcs = []

        def spy(es):
            arcs.append(es)
            return _arc(es)

        with patch.object(errdiff.starunion, "_arc", spy):
            cycle_envelope([over_common_denominator(r) for r in (ra, rb)], ORIGIN)
        # both rings wind once around the origin, so every arc between the
        # sorted directions of their vertices and the four axes is spanned,
        # and _arc runs on each in turn; canonical may have dropped an axis
        # vertex that lies on a straight edge, but the sweep splits there
        U = sorted({_direction(v) for v in ra + rb} | set(AXIS_DIRS),
                   key=cmp_to_key(_dir_cmp))
        assert len(arcs) == len(U)
        for k, es in enumerate(arcs):
            u, w = pt(*U[k]), pt(*U[(k + 1) % len(U)])
            for e, ru, rw in es:
                a, b = _reduced_point(e.a), _reduced_point(e.b)
                assert ru > 0 and rw > 0
                assert (F(e.n, ru), F(e.n, rw)) == (_t_at(u, a, b), _t_at(w, a, b))

        dirs = [(pt(*d), d) for d in DIR_POOL]
        for a1, b1, ea in edges(ra):
            for u, d in dirs:
                if cross(a1, u) >= 0 and cross(u, b1) >= 0:
                    got = _reduced_point(_limit(ea, 0, d))
                    assert got == scale(u, _t_at(u, a1, b1))
            for a2, b2, eb in edges(rb):
                if cross(b1 - a1, b2 - a2) == 0:
                    continue
                t, (dx, dy) = _crossing(ea, eb)
                w = _reduced_point(t)
                assert w == line_cross_point(a1, b1, a2, b2)
                g = math.gcd(t[0], t[1])
                assert (dx, dy) == (t[0] // g, t[1] // g)


def _edge(a, b):
    return _Edge(_triple(pt(*a)), _triple(pt(*b)), -1, -1)


def _entries(es, u, w):
    """The edges as the sweep hands them to _arc over the arc from u to w:
    each with r = den * (x × d) at x = u and x = w."""
    return [(e, e.den * (u[0] * e.dy - u[1] * e.dx), e.den * (w[0] * e.dy - w[1] * e.dx))
            for e in es]


class TestArc:
    """_arc gives ties at a shared point to the edge outermost at the arc's
    far end, whatever the order of its edges, so no handover is empty."""

    @pytest.mark.parametrize("order", itertools.permutations(range(3)))
    def test_three_edges_through_one_point(self, order):
        # THREE_AT_ONE_POINT's edges through (2, 1), over the arc from the
        # ray (1, 0) to the ray (3, 4), where the third is outermost
        es = [_edge((3, 0), (1, 2)), _edge(("5/2", 0), ("3/2", 2)),
              _edge((2, -1), (2, 3))]
        first, last, crossings = _arc(_entries([es[i] for i in order], (1, 0), (3, 4)))
        assert (first, last) == (es[0], es[2])
        assert crossings == [((2, 1, 1), (2, 1))]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_edges_from_one_vertex(self, order):
        es = [_edge((2, 0), (0, 2)), _edge((2, 0), (0, 3))]
        assert _arc(_entries([es[i] for i in order], (1, 0), (0, 1))) == (es[1], es[1], [])


def reference_clip(ring, a, b, c):
    """clip_components in Fractions, each component in canonical form
    (least_rotation): each side from a*x + b*y - c, each crossing as
    u + (v - u) f(u) / (f(u) - f(v)), the chains joined by their Fraction
    positions along (-b, a)."""
    vals = [a * p.x + b * p.y - c for p in ring]
    if all(f <= 0 for f in vals):
        return [least_rotation(canonical(list(ring)))]
    if all(f >= 0 for f in vals):
        return []
    n = len(ring)
    walk = []
    for i in range(n):
        u, v, fu, fv = ring[i], ring[(i + 1) % n], vals[i], vals[(i + 1) % n]
        walk.append((u, fu))
        if fu * fv < 0:
            walk.append((u + scale(v - u, fu / (fu - fv)), F(0)))
    start = next(i for i, (_, f) in enumerate(walk) if f > 0)
    chains, cur = [], []
    for k in range(1, len(walk) + 1):
        w, f = walk[(start + k) % len(walk)]
        if f <= 0:
            cur.append(w)
        else:
            if len(cur) >= 2:
                chains.append(cur)
            cur = []
    if len(cur) >= 2:
        chains.append(cur)
    t = Point(-b, a)
    events = sorted([(dot(t, ch[-1]), 0, ci) for ci, ch in enumerate(chains)]
                    + [(dot(t, ch[0]), 1, ci) for ci, ch in enumerate(chains)],
                    key=lambda e: (e[0], e[1]))
    succ = {}
    for e1, e2 in zip(events[0::2], events[1::2]):
        if e1[1] != 0 or e2[1] != 1:
            raise MultiComponent("degenerate contact")
        succ[e1[2]] = e2[2]
    comps, seen = [], set()
    for ci in range(len(chains)):
        pts = []
        while ci not in seen:
            seen.add(ci)
            pts.extend(chains[ci])
            ci = succ[ci]
        comp = canonical(pts)
        if comp is not None:
            comps.append(least_rotation(comp))
    return sorted(comps, key=lambda r: [p.key() for p in r])


def draw_wall(draw, ring, radius):
    """(a, b, c) of a wall a*x + b*y <= c through two vertices of ring,
    through one vertex, or anywhere, facing either way."""
    n = len(ring)
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("two vertices", "one vertex", "free")))
    if kind == "two vertices":
        p, q = ring[i], ring[(i + draw(st.integers(1, n - 1))) % n]
        a, b = q.y - p.y, p.x - q.x
    else:
        a, b = (F(draw(st.integers(-3, 3))) for _ in range(2))
        if a == b == 0:
            a = F(1)
        p = ring[i] if kind == "one vertex" else Point(draw(radius), draw(radius))
    flip = draw(st.sampled_from((1, -1)))
    return a * flip, b * flip, (a * p.x + b * p.y) * flip


@st.composite
def ring_and_wall(draw, radius):
    """A canonical star ring, counter-clockwise or reversed to clockwise,
    and a wall (draw_wall)."""
    ring = draw(star_rings(radius))
    a, b, c = draw_wall(draw, ring, radius)
    if draw(st.booleans()):
        ring = ring[::-1]
    return ring, a, b, c


@st.composite
def ring_and_walls(draw, radius):
    """A canonical star ring and one to five walls (draw_wall)."""
    ring = draw(star_rings(radius))
    k = draw(st.integers(1, 5))
    return ring, [draw_wall(draw, ring, radius) for _ in range(k)]


def folded_clip(ring, walls):
    """reference_clip by each wall in turn, the components in vertex-key
    order."""
    comps = [ring]
    for a, b, c in walls:
        comps = [r for comp in comps for r in reference_clip(comp, a, b, c)]
    return sorted(comps, key=lambda r: [p.key() for p in r])


# rings that each cut leaves with a vertex to drop on a wall line, given to
# Region.from_ring, with the walls and the canonical components: a spike
# along the line of an earlier wall, a spike at the join, a repeated
# closing vertex, and a piece with zero area
DEGENERATE_CUTS = [
    ([(-1, -1), (0, -1), (2, -4), (4, -1), (3, 1), (2, 1), (1, 2), (0, 4), (0, 3), (-1, 1)],
     [(-1, -1, -3), (-3, 3, 2), (0, 3, 4)],
     [[(2, 1), (4, -1), (3, 1)]]),
    ([(-3, -4), (-1, -2), (0, -2), (4, -1), (3, 0), (1, 0), (3, 4), (0, 1), (-2, 0)],
     [(1, -1, -1)],
     [[("-7/3", "-4/3"), (0, 1), (-2, 0)]]),
    ([(-1, -3), (0, -3), (0, -4), (3, -4), (4, -4), (1, 0), (3, 3), (3, 4), (-3, 4)],
     [(2, 1, -3), (1, -2, 6)],
     [[("-7/3", "5/3"), (-1, -3), (0, -3)]]),
    ([(-2, -4), (2, -2), (4, -4), (3, -2), (4, 0), (1, 0), (0, 3), (-2, 2)],
     [(-2, -1, -4), (1, 1, 1)],
     []),
]


def outcome(fn, *args):
    try:
        return fn(*args)
    except MultiComponent:
        return MultiComponent


class TestClipIntegerKernel:
    @given(st.one_of(ring_and_wall(radii), ring_and_wall(wide_radii)))
    @settings(max_examples=300, deadline=None)
    def test_clip_matches_fraction_reference(self, case):
        ring, a, b, c = case
        hp = wall(a, b, c)
        got = outcome(clip, ring, hp)
        assert got == outcome(reference_clip, ring, a, b, c)
        if all(level(hp, p) <= 0 for p in ring):
            scaled = over_common_denominator(ring)
            assert clip_components(scaled, (hp,))[0][1] is scaled[1]

    @given(st.one_of(ring_and_walls(radii), ring_and_walls(wide_radii)))
    @settings(max_examples=200, deadline=None)
    def test_components_are_rotated_canonical_rings(self, case):
        """Each component is counter-clockwise with positive area, over the
        lcm of its reduced vertex denominators, and its canonical form only
        rotates it (rotated); those forms are the reference's."""
        ring, walls = case
        scaled = over_common_denominator(ring)
        got = outcome(clip_components, scaled, [wall(*w) for w in walls])
        want = outcome(folded_clip, ring, walls)
        if got is MultiComponent or want is MultiComponent:
            assert got is want
            return
        forms = []
        for m, xs, ys in got:
            assert math.gcd(m, *xs, *ys) == 1
            forms.append(least_rotation([Point(F(xs[i], m), F(ys[i], m))
                                         for i in rotated((m, xs, ys))]))
        assert sorted(forms, key=lambda r: [p.key() for p in r]) == want

    @pytest.mark.parametrize("ring, walls, want", DEGENERATE_CUTS)
    def test_degenerate_cuts(self, ring, walls, want):
        got = clipped(Region.from_ring(ring_of(*ring)), walls)
        assert [list(R.vertices) for R in got] == [ring_of(*w) for w in want]

    def test_clockwise_one_chain_cut(self):
        # a clockwise square cut once leaves one chain, whose end lies past
        # its start along (-B, A): no wall order joins it, as in the
        # reference's event pairing
        cw = UNIT_SQUARE[::-1]
        for hp in ((2, 0, 1), (0, -2, -1)):
            assert outcome(clip, cw, hp) is MultiComponent
            assert outcome(reference_clip, cw, *map(F, hp)) is MultiComponent
        # counter-clockwise, the same cuts keep one half
        assert clip(UNIT_SQUARE, (0, -2, -1)) == [ring_of((0, "1/2"), (1, "1/2"), (1, 1), (0, 1))]
        # a wall that cuts nothing keeps the ring as given
        scaled = over_common_denominator(cw)
        assert clip_components(scaled, ((1, 0, 1),)) == [scaled]

    def test_vertices_on_the_line(self):
        # the wall y <= 1 runs through two vertices of the L; the clip keeps
        # the lower bar and cuts nowhere else
        lshape = ring_of((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        got = clip(lshape, (0, 1, 1))
        assert got == [ring_of((0, 0), (2, 0), (2, 1), (0, 1))]
        got = clip(lshape, (0, -1, -1))
        assert got == [ring_of((0, 1), (1, 1), (1, 2), (0, 2))]


# ---------------------------------------------------------------------------
# containment and union in Fractions: the references the integer code matches


def line_cross_point(p1, p2, q1, q2):
    """Intersection of line(p1,p2) with line(q1,q2); lines must not be parallel."""
    dp = p2 - p1
    dq = q2 - q1
    den = cross(dp, dq)
    if den == 0:
        raise GeometryError("parallel lines have no single intersection")
    t = cross(q1 - p1, dq) / den
    return p1 + scale(dp, t)


def reference_on_segment(a, b, p):
    return (reference_orient(a, b, p) == 0 and min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def reference_seg_seg_points(p1, p2, q1, q2):
    """All isolated contact points and overlap endpoints of two segments."""
    d1 = reference_orient(q1, q2, p1)
    d2 = reference_orient(q1, q2, p2)
    if d1 == 0 and d2 == 0:
        out = [w for w in (q1, q2) if reference_on_segment(p1, p2, w)]
        out += [w for w in (p1, p2) if reference_on_segment(q1, q2, w) and w not in out]
        return out
    d3 = reference_orient(p1, p2, q1)
    d4 = reference_orient(p1, p2, q2)
    out = []
    for d, w, (a, b) in ((d1, p1, (q1, q2)), (d2, p2, (q1, q2)),
                         (d3, q1, (p1, p2)), (d4, q2, (p1, p2))):
        if d == 0 and reference_on_segment(a, b, w) and w not in out:
            out.append(w)
    if (not out and d1 and d2 and d3 and d4
            and (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)):
        out.append(line_cross_point(p1, p2, q1, q2))
    return out


def bbox(points):
    """(xmin, ymin, xmax, ymax) of the points, in Fractions."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def boxes_overlap(b1, b2):
    return not (b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1])


class ReferenceRing:
    """A ring with its box and its edges, each with the edge's box."""

    def __init__(self, ring):
        self.ring = ring = list(ring)
        self.box = bbox(ring)
        self.edges = [(u, v, bbox((u, v))) for u, v in zip(ring, ring[1:] + ring[:1])]

    def locate(self, p):
        if not boxes_overlap(self.box, (p.x, p.y, p.x, p.y)):
            return -1
        return locate(self.ring, p)


def reference_split_edge(u, v, others):
    """Points of [u, v] split at every boundary contact, ordered from u to v."""
    seg_box = bbox((u, v))
    found = {u.key(): u, v.key(): v}
    for other in others:
        if not boxes_overlap(seg_box, other.box):
            continue
        for q1, q2, ebox in other.edges:
            if boxes_overlap(seg_box, ebox):
                for w in reference_seg_seg_points(u, v, q1, q2):
                    found[w.key()] = w
    d = v - u
    return sorted(found.values(), key=lambda p: dot(p - u, d))


def reference_midpoint(p, q):
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def reference_subset_witness(a_ring, b_ring):
    """subset_witness in Fractions: the vertices of a, then the midpoint of
    every piece of a's edges split at contacts with b, in order."""
    B = ReferenceRing(b_ring)
    for v in a_ring:
        if B.locate(v) < 0:
            return v
    for u, v, _ in ReferenceRing(a_ring).edges:
        pts = reference_split_edge(u, v, (B,))
        for p, q in zip(pts, pts[1:]):
            if p != q and B.locate(reference_midpoint(p, q)) < 0:
                return reference_midpoint(p, q)
    return None


def reference_collinear_side(mid, u, v, J):
    for w1, w2, _ in J.edges:
        if reference_on_segment(w1, w2, mid):
            return 1 if dot(w2 - w1, v - u) > 0 else -1
    return 0


def reference_union_rings(rings):
    """union_rings in Fractions: the same split, keep rule and stitching."""
    idx = [ReferenceRing(r) for r in rings]
    kept = []
    for i, I in enumerate(idx):
        near = [(j, J) for j, J in enumerate(idx)
                if j != i and boxes_overlap(I.box, J.box)]
        for u, v, _ in I.edges:
            pts = reference_split_edge(u, v, [J for _, J in near])
            for p, q in zip(pts, pts[1:]):
                mid = reference_midpoint(p, q)
                keep = p != q
                for j, J in near:
                    loc = J.locate(mid)
                    side = reference_collinear_side(mid, u, v, J) if loc == 0 else 0
                    if loc > 0 or side < 0 or (side > 0 and j < i):
                        keep = False
                if keep:
                    kept.append((p, q))
    outgoing = {}
    for seg in kept:
        if seg[0].key() in outgoing:
            raise DisconnectedUnion("union boundary touches itself")
        outgoing[seg[0].key()] = seg
    used = set()
    cycles = []
    for start in sorted(outgoing):
        if start in used:
            continue
        cur = outgoing[start]
        path = [cur[0]]
        while cur is not None and cur[0].key() not in used:
            used.add(cur[0].key())
            path.append(cur[1])
            cur = outgoing.get(cur[1].key())
        if path[0] != path[-1]:
            raise DisconnectedUnion("union boundary has a dangling chain")
        ring = canonical(path[:-1])
        if ring is not None:
            cycles.append(ring)
    for i, r1 in enumerate(cycles):
        for j, r2 in enumerate(cycles):
            if i != j and any(locate(r2, v) > 0 for v in r1):
                raise DisconnectedUnion("union produced a hole")
    return cycles


def union_outcome(fn, rings):
    try:
        return fn(rings)
    except DisconnectedUnion as e:
        return ("DisconnectedUnion", str(e))


# rings that share edges, overlap along collinear edges, meet in T-junctions
# and corners, and enclose holes: rectangles and convex hulls on a small
# grid, scaled by 1, 1/2 or 1/3
grid = st.integers(0, 4)


@st.composite
def grid_rings(draw):
    k = draw(st.sampled_from((1, 2, 3)))
    if draw(st.booleans()):
        x0, x1 = sorted(draw(st.sets(grid, min_size=2, max_size=2)))
        y0, y1 = sorted(draw(st.sets(grid, min_size=2, max_size=2)))
        corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        return [Point(F(x, k), F(y, k)) for x, y in corners]
    pts = draw(st.lists(st.tuples(grid, grid), min_size=3, max_size=7))
    try:
        return list(hull(Point(F(x, k), F(y, k)) for x, y in pts))
    except GeometryError:
        return [Point(F(x, k), F(y, k)) for x, y in ((0, 0), (1, 0), (0, 1))]


@st.composite
def shifted_star_rings(draw):
    """Star rings with narrow or 128-bit radii, moved by an offset with
    denominator 3 or left in place."""
    ring = draw(star_rings(draw(st.sampled_from((radii, wide_radii)))))
    shift = draw(st.one_of(st.just(ORIGIN), offsets))
    return [v + shift for v in ring]


any_rings = st.one_of(grid_rings(), shifted_star_rings())


class TestIntegerContainmentAndUnion:
    @given(any_rings, any_rings)
    @settings(max_examples=300, deadline=None)
    def test_subset_witness_matches_fraction_reference(self, a, b):
        for x, y in ((a, b), (b, a), (a, a)):
            assert witness(x, y) == reference_subset_witness(x, y)

    @given(st.lists(grid_rings(), min_size=2, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_union_matches_fraction_reference_on_grids(self, rings):
        got = union_outcome(unite, rings)
        assert got == union_outcome(reference_union_rings, rings)

    @given(st.lists(any_rings, min_size=2, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_union_matches_fraction_reference(self, rings):
        got = union_outcome(unite, rings)
        assert got == union_outcome(reference_union_rings, rings)

    def test_hole_and_touch_messages(self):
        frame = [ring_of((0, 0), (3, 0), (3, 1), (0, 1)),
                 ring_of((2, 0), (3, 0), (3, 3), (2, 3)),
                 ring_of((0, 2), (3, 2), (3, 3), (0, 3)),
                 ring_of((0, 0), (1, 0), (1, 3), (0, 3))]
        corner = [UNIT_SQUARE, [p + pt(1, 1) for p in UNIT_SQUARE]]
        for rings, message in ((frame, "union produced a hole"),
                               (corner, "union boundary touches itself")):
            assert union_outcome(unite, rings) == ("DisconnectedUnion", message)
            assert union_outcome(reference_union_rings, rings) == (
                "DisconnectedUnion", message)
