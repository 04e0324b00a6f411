"""Operator steps, snap candidates, certificates, and the fixed-point engine."""
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

import errdiff.operators
import errdiff.starunion
from errdiff.booleans import subset, subset_witness, union_one_region
from errdiff.geometry import (
    ORIGIN,
    DegenerateHull,
    DisconnectedUnion,
    GeometryError,
    KernelViolation,
    MultiComponent,
    NotSimple,
    NotStarAtCenter,
    Point,
    PointSeed,
    Region,
    _canonical_order,
    _shift,
    dist_sq,
    equal_canonical,
    hull_of_rings,
    is_convex_ring,
    over_common_denominator,
    point_in_ring,
    pt,
    scalar_str,
)
from errdiff.cli import _seed_for
from errdiff.operators import (
    OPERATORS,
    Collection,
    EmptyCellPiece,
    IterationResult,
    MAX_ITER,
    SNAP_RUNGS,
    _g_pieces,
    _limit_denominator,
    _p_step_general,
    _star_cycles,
    _sum_hull_with_ring,
    apply_operator,
    cell_pieces,
    certify,
    iterate,
    minkowski_convex_star,
    p_step,
    shared_site,
    snap_candidate,
    snap_rungs,
)
from errdiff.scene import load_scene
from errdiff.starunion import cycle_envelope, star_cycle
from errdiff.voronoi import SiteSet, split_ring
from test_booleans import DIR_POOL, star_rings
from test_geometry import (
    clip_components,
    grid_points,
    reference_hull,
    reference_minkowski,
    reference_orient,
    scale,
    wide_points,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def sites(*coords, id="S"):
    return SiteSet(tuple(pt(x, y) for x, y in coords), id=id)


UNIT_SQUARE = sites((0, 0), (1, 0), (1, 1), (0, 1), id="unit")
DIAMOND = sites((2, 0), (0, 2), (-2, 0), (0, -2), id="diamond")

# eight outer/inner sites whose minimal set takes four growth steps
STAR8 = sites((2, 0), (0, 2), (-2, 0), (0, -2),
              (F(1, 2), F(1, 2)), (-F(1, 2), F(1, 2)),
              (-F(1, 2), -F(1, 2)), (F(1, 2), -F(1, 2)), id="star8")

GRID9 = sites(*[(x, y) for x in (-1, 1, 3) for y in (-1, 1, 3)], id="grid9")

ZIGZAG5 = sites((0, 0), (F(1, 2), F(2, 3)), (1, 0), (F(3, 2), -F(2, 3)), (2, 0),
                id="zigzag5")


def single(S):
    return Collection((S,))


def g_of(S, q):
    """g over the one-member collection {S}."""
    return apply_operator("g", single(S), q)


class TestCollection:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Collection((UNIT_SQUARE, sites((0, 0), (1, 0), (0, 1), id="unit")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Collection(())

    def test_iteration_order(self):
        c = Collection((UNIT_SQUARE, DIAMOND))
        assert [S.id for S in c] == ["unit", "diamond"]


class TestGStep:
    def test_unit_square_from_origin(self):
        got = apply_operator("g", single(UNIT_SQUARE), PointSeed(ORIGIN))
        h = F(1, 2)
        assert list(got.vertices) == [pt(-h, -h), pt(h, -h), pt(h, h), pt(-h, h)]

    def test_unit_square_fixed_point(self):
        h = F(1, 2)
        q = Region.from_ring([pt(-h, -h), pt(h, -h), pt(h, h), pt(-h, h)])
        assert equal_canonical(apply_operator("g", single(UNIT_SQUARE), q), q)

    def test_seed_away_from_origin_rejected(self):
        with pytest.raises(KernelViolation):
            apply_operator("g", single(UNIT_SQUARE), PointSeed(pt(1, 1)))

    def test_region_without_origin_rejected(self):
        q = Region.from_ring([pt(3, 3), pt(4, 3), pt(4, 4), pt(3, 4)])
        with pytest.raises(KernelViolation):
            apply_operator("g", single(UNIT_SQUARE), q)

    def test_result_contains_input(self):
        q = apply_operator("g", single(DIAMOND), PointSeed(ORIGIN))
        q2 = apply_operator("g", single(DIAMOND), q)
        assert subset(q, q2)
        assert q2.kernel_contains(ORIGIN)

    def test_empty_cell_piece_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(errdiff.operators, "split_ring",
                            lambda S, X: [[] for _ in S.sites])
        with pytest.raises(EmptyCellPiece):
            apply_operator("g", single(UNIT_SQUARE), PointSeed(ORIGIN))
        assert issubclass(EmptyCellPiece, GeometryError)

    @pytest.mark.parametrize("k", range(8))
    def test_empty_cell_piece_names_the_missed_site(self, monkeypatch, k):
        # only the cell of site k keeps nothing: cell_pieces lists every
        # other site in S.sites order, and the error names site k
        S = STAR8

        def split(S_, X):
            pieces = split_ring(S_, X)
            pieces[k] = []
            return pieces

        monkeypatch.setattr(errdiff.operators, "split_ring", split)
        others = [c for i, c in enumerate(S.sites) if i != k]
        assert [c for c, _ in cell_pieces(S, S.hull._scaled)] == others
        with pytest.raises(EmptyCellPiece) as err:
            apply_operator("g", single(S), PointSeed(ORIGIN))
        assert str(err.value) == f"cell of {S.sites[k]} misses ch S + Q"

    def test_collection_duplicate_member_is_noop(self):
        twin = SiteSet(UNIT_SQUARE.sites, id="twin")
        one = apply_operator("g", single(UNIT_SQUARE), PointSeed(ORIGIN))
        two = apply_operator("g", Collection((UNIT_SQUARE, twin)), PointSeed(ORIGIN))
        assert equal_canonical(one, two)


# plus-shaped region around the origin
PLUS = Region.from_ring([pt(1, -3), pt(1, -1), pt(3, -1), pt(3, 1), pt(1, 1), pt(1, 3),
                         pt(-1, 3), pt(-1, 1), pt(-3, 1), pt(-3, -1), pt(-1, -1),
                         pt(-1, -3)])


class TestMinkowskiConvexStar:
    def test_convex_input_matches_hull_sum(self):
        q = Region.from_ring([pt(-1, -1), pt(1, -1), pt(1, 1), pt(-1, 1)])
        got = minkowski_convex_star(UNIT_SQUARE.hull, q)
        assert list(got.vertices) == [pt(-1, -1), pt(2, -1), pt(2, 2), pt(-1, 2)]

    def test_star_input(self):
        got = minkowski_convex_star(UNIT_SQUARE.hull, PLUS)
        for v in PLUS.vertices:
            assert got.locate(v) >= 0
        for v in got.vertices:
            assert any((v - w).key() in {p.key() for p in PLUS.vertices}
                       for w in UNIT_SQUARE.hull.vertices)


def fan_sum(P, Q):
    """Reference P + Q: the Fraction edge merge for a convex Q; otherwise
    the hull of the pairwise sums of P with each origin triangle of Q,
    united by the general union."""
    if is_convex_ring(Q._scaled):
        return Region.from_ring(reference_minkowski(P, Q))
    parts = []
    n = len(Q.vertices)
    for i in range(n):
        a, b = Q.vertices[i], Q.vertices[(i + 1) % n]
        if reference_orient(ORIGIN, a, b):
            parts.append(Region.hull_of([u + v for u in P.vertices
                                                for v in (ORIGIN, a, b)]))
    return union_one_region(parts)


# reduced lattice directions with coordinates up to 3, counterclockwise from +x
LATTICE_DIRS = sorted({(x // math.gcd(x, y), y // math.gcd(x, y))
                       for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)},
                      key=lambda d: math.atan2(d[1], d[0]))
AXIS_DIRS = {LATTICE_DIRS.index(d) for d in ((1, 0), (0, 1), (-1, 0), (0, -1))}
lattice_radii = st.fractions(min_value=F(1, 2), max_value=3, max_denominator=2)


@st.composite
def lattice_hulls(draw):
    """Convex polygons on a small lattice (half-integers or integers), so
    their edges are often parallel to those of lattice_stars."""
    den = draw(st.sampled_from((1, 2)))
    ax, ay = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    extra = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4))
    pts = [(ax, ay), (ax + w, ay), (ax, ay + h)] + extra
    return Region.hull_of(pt(F(x, den), F(y, den)) for x, y in pts)


@st.composite
def lattice_stars(draw):
    """Regions star-shaped around the origin, one vertex on each drawn
    lattice direction.  With the origin off the boundary the four axes are
    always drawn; with the origin a vertex, the directions are a run of
    consecutive ones short of the full turn, and the origin's angle may be
    reflex."""
    if draw(st.booleans()):
        idxs = sorted(AXIS_DIRS | draw(st.sets(st.integers(0, len(LATTICE_DIRS) - 1),
                                                 max_size=10)))
        ring = []
    else:
        start = draw(st.integers(0, len(LATTICE_DIRS) - 1))
        length = draw(st.integers(2, len(LATTICE_DIRS) - 1))
        idxs = [(start + k) % len(LATTICE_DIRS) for k in range(length)]
        ring = [ORIGIN]
    for i in idxs:
        r = draw(lattice_radii)
        ring.append(pt(LATTICE_DIRS[i][0] * r, LATTICE_DIRS[i][1] * r))
    return Region.from_ring(ring)


# star-shaped around its corner at the origin, with a reflex vertex at (1, 1)
L_AT_ORIGIN = Region.from_ring([ORIGIN, pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])
# a square missing its fourth quadrant: the origin is a reflex vertex
PACMAN = Region.from_ring([ORIGIN, pt(2, 0), pt(2, 2), pt(-2, 2), pt(-2, -2), pt(0, -2)])


class TestMinkowskiConvexStarOracle:
    """The convolution-cycle sum equals the triangle-fan sum, vertex for
    vertex, and is star-shaped around every point of P."""

    @given(lattice_hulls(), lattice_stars())
    @settings(max_examples=150, deadline=None)
    @example(UNIT_SQUARE.hull, PLUS)
    @example(Region.hull_of([pt(0, 0), pt(1, 0), pt(0, 1)]), L_AT_ORIGIN)
    @example(Region.hull_of([pt(-1, 0), pt(1, -1), pt(1, 1)]), PACMAN)
    def test_matches_fan_oracle(self, P, Q):
        got = minkowski_convex_star(P, Q)
        want = fan_sum(P, Q)
        assert got.vertices == want.vertices
        assert got.kernel_contains(P.vertices[0])


@st.composite
def convex_polygons(draw, point_strategy):
    pts = draw(st.lists(point_strategy, min_size=3, max_size=7))
    try:
        return Region.hull_of(pts)
    except DegenerateHull:
        assume(False)


@st.composite
def convex_off_origin(draw, point_strategy):
    """A convex polygon moved clear of the origin: right of x = 0 by a
    drawn gap, then turned by a drawn multiple of a quarter turn."""
    poly = draw(convex_polygons(point_strategy))
    dx = 1 - min(v.x for v in poly.vertices) + draw(st.integers(0, 3))
    dy = draw(st.integers(-6, 6))
    ring = [pt(v.x + dx, v.y + dy) for v in poly.vertices]
    for _ in range(draw(st.integers(0, 3))):
        ring = [Point(-v.y, v.x) for v in ring]
    return Region.hull_of(ring)


convex_pairs = st.one_of(
    st.tuples(convex_polygons(grid_points), convex_off_origin(grid_points)),
    st.tuples(convex_polygons(wide_points), convex_off_origin(wide_points)))


class TestConvexSummandOffOrigin:
    """A convex summand may lie anywhere: the walk closes its convolution
    cycle into the sum without the radial envelope."""

    @given(convex_pairs)
    @settings(max_examples=200, deadline=None)
    def test_walk_matches_fraction_merge(self, pair):
        P, Q = pair
        assert Q.locate(ORIGIN) < 0
        got = minkowski_convex_star(P, Region(*Q._scaled))
        assert list(got.vertices) == reference_minkowski(P, Q)

    @given(convex_pairs)
    @settings(max_examples=100, deadline=None)
    def test_sum_hull_with_convex_ring(self, pair):
        P, Q = pair
        got = _sum_hull_with_ring(P, Region(*Q._scaled))
        assert [list(R.vertices) for R in got] == [reference_minkowski(P, Q)]


class TestPStep:
    def test_point_seed_at_member_site(self):
        got = p_step(UNIT_SQUARE, PointSeed(pt(0, 0)))
        assert list(got.vertices) == [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]

    def test_point_seed_equidistant_between_sites(self):
        # seed midway between (0,0) and (1,0) sums the hull at both shifts
        got = p_step(UNIT_SQUARE, PointSeed(pt(F(1, 2), 0)))
        assert list(got.vertices) == [pt(-F(1, 2), 0), pt(F(3, 2), 0),
                                      pt(F(3, 2), 1), pt(-F(1, 2), 1)]

    def test_region_grows(self):
        d = p_step(DIAMOND, PointSeed(pt(0, 2)))
        d2 = p_step(DIAMOND, d)
        assert subset(d, d2)

    def test_collection_with_tied_seed(self):
        # (0,0) is a unit-square site but equidistant from all four diamond
        # sites, so the diamond part is a diamond of twice the radius and
        # swallows the square part
        got = apply_operator("p", Collection((UNIT_SQUARE, DIAMOND)),
                             PointSeed(pt(0, 0)))
        assert list(got.vertices) == [pt(-4, 0), pt(0, -4), pt(4, 0), pt(0, 4)]
        assert subset(UNIT_SQUARE.hull, got)
        assert subset(DIAMOND.hull, got)

    def test_shared_site_is_the_least_common_site(self):
        SS = Collection((UNIT_SQUARE, sites((1, 1), (0, 1), (5, 5), id="T")))
        assert shared_site(SS) == pt(0, 1)

    def test_members_that_share_no_site_go_to_the_general_union(self):
        # a point seed is its own center, but the envelope of the members'
        # images of a region is centered on a site that they all share
        SS = Collection((UNIT_SQUARE, DIAMOND))
        with pytest.raises(KernelViolation):
            shared_site(SS)
        d = apply_operator("p", SS, PointSeed(pt(0, 0)))
        for op in ("p", "P"):
            assert apply_operator(op, SS, d) == general_p_family(op, SS, d)


def or_disconnected(fn, *args):
    try:
        return fn(*args)
    except DisconnectedUnion:
        return DisconnectedUnion


lattice_sites = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                         min_size=3, max_size=7, unique=True)
halves = st.integers(-8, 8).map(lambda k: F(k, 2))


class TestPStepPointSeed:
    """p of a point seed {s0} is the union of the translates ch S + s0 - c
    over the sites c nearest to s0; half-integer seeds on lattice sites tie
    often."""

    @given(lattice_sites, halves, halves)
    @example([(0, 0), (2, 0), (1, 1)], F(1), F(0))
    @settings(max_examples=200, deadline=None)
    def test_matches_union_of_translates(self, coords, x, y):
        try:
            S = sites(*coords)
        except DegenerateHull:
            assume(False)
        s0 = pt(x, y)
        best = min(dist_sq(s0, c) for c in S)
        translates = [Region.from_ring([v + s0 - c for v in S.hull.vertices])
                      for c in S if dist_sq(s0, c) == best]
        want = or_disconnected(union_one_region, translates)
        got = or_disconnected(p_step, S, PointSeed(s0))
        if want is DisconnectedUnion:
            assert got is DisconnectedUnion
        else:
            assert got is not DisconnectedUnion and equal_canonical(got, want)

    def test_translates_pinched_at_the_seed_raise(self):
        # all three sites are nearest to (1, 0), and their translates of the
        # triangle meet only there
        with pytest.raises(DisconnectedUnion):
            p_step(sites((0, 0), (2, 0), (1, 1)), PointSeed(pt(1, 0)))


def hull_sums_envelope(S, D):
    """Reference p(D) for a region D whose shifted cell pieces are each one
    component star-shaped around the origin but whose envelope pinches
    there: ch S added to each shifted piece, every sum holding ch S and
    star-shaped around each of its points, so one envelope of the sums
    around an interior point of ch S, the mean of three hull vertices, is
    their union."""
    hull = S.hull
    cycles = _star_cycles(cell_pieces(S, D._scaled))
    a, b, c = hull.vertices[:3]
    z = scale(a + b + c, F(1, 3))
    sums = []
    for m, xs, ys in cycles:
        order = _canonical_order(xs, ys)  # a Region's ring is canonical
        piece = Region(m, [xs[i] for i in order], [ys[i] for i in order])
        sums.append(star_cycle(minkowski_convex_star(hull, piece)._scaled, z))
    return cycle_envelope(sums, z)


def p_step_route(S, D):
    """The name of the route p_step takes on a region D: "fast" for the
    envelope of the shifted pieces, else the error that sends the pieces
    to the general route."""
    try:
        cycle_envelope(_star_cycles(cell_pieces(S, D._scaled)), ORIGIN)
    except (MultiComponent, NotStarAtCenter, DisconnectedUnion) as exc:
        return type(exc).__name__
    return "fast"


def seeded_collections(rng, count):
    """count draws of two or three site sets of 3 to 7 lattice points of
    [-3, 3]^2, each also holding one drawn shared site; a draw with a
    collinear member is None."""
    lattice = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    out = []
    for _ in range(count):
        shared = rng.choice(lattice)
        members = []
        try:
            for i in range(rng.randint(2, 3)):
                coords = rng.sample(lattice, rng.randint(3, 7))
                if shared not in coords:
                    coords.append(shared)
                members.append(sites(*coords, id=f"S{i}"))
        except DegenerateHull:
            out.append(None)
        else:
            out.append(Collection(tuple(members)))
    return out


class TestPStepRoutes:
    """p_step's two routes: the radial envelope of the shifted pieces, and
    the edge sweep with the general union where that envelope fails."""

    def test_routes_agree_along_runs(self):
        for S in (DIAMOND, ZIGZAG5, STAR8):
            d = apply_operator("p", single(S), PointSeed(S.sites[0]))
            for _ in range(3):
                fast = p_step(S, d)
                general = _p_step_general(S.hull, cell_pieces(S, d._scaled))
                assert equal_canonical(fast, general)
                d = fast

    def test_general_route_when_piece_misses_its_site(self):
        # a nonconvex D sitting inside one cell but away from the site makes
        # the recentered piece miss the origin, forcing the general route;
        # p(D) must still contain D
        S = sites((0, 0), (8, 0), (0, 8), id="corner")
        ring = [pt(1, 1), pt(3, 1), pt(3, F(3, 2)), pt(F(3, 2), F(3, 2)),
                pt(F(3, 2), 3), pt(1, 3)]
        d = Region.from_ring(ring)
        got = p_step(S, d)
        assert subset(d, got)
        again = p_step(S, got)
        assert subset(got, again)

    def test_pinched_pieces_take_the_general_route(self, monkeypatch):
        """PINCHED's pieces of ch S are each star-shaped around the origin
        once shifted, but their envelope pinches there: p_step takes the
        general route once, and its image is the envelope of hull sums."""
        d = PINCHED.hull
        calls = []

        def spy(hull, pieces):
            calls.append(len(pieces))
            return _p_step_general(hull, pieces)
        monkeypatch.setattr(errdiff.operators, "_p_step_general", spy)
        assert p_step_route(PINCHED, d) == "DisconnectedUnion"
        image = p_step(PINCHED, d)
        assert calls == [len(PINCHED.sites)]
        assert image == hull_sums_envelope(PINCHED, d)
        assert subset(d, image)

    def test_route_tally_on_seeded_collections(self, monkeypatch):
        """Every region p_step call along p chains from the shared site of
        seeded collections, by route: a fast image equals the general
        route's, a pinched one the envelope of hull sums, and every image
        holds its input, as does every chain image."""
        tally = dict.fromkeys(("fast", "MultiComponent", "NotStarAtCenter",
                               "DisconnectedUnion", "degenerate draw"), 0)
        step = errdiff.operators.p_step

        def checked(S, D):
            image = step(S, D)
            if isinstance(D, Region):
                route = p_step_route(S, D)
                tally[route] += 1
                if route == "fast":
                    assert image == _p_step_general(S.hull, cell_pieces(S, D._scaled))
                elif route == "DisconnectedUnion":
                    assert image == hull_sums_envelope(S, D)
                assert subset(D, image)
            return image
        monkeypatch.setattr(errdiff.operators, "p_step", checked)
        for SS in seeded_collections(random.Random(36), 20):
            if SS is None:
                tally["degenerate draw"] += 1
                continue
            d = PointSeed(shared_site(SS))
            for _ in range(4):
                try:
                    image = apply_operator("p", SS, d)
                except GeometryError as exc:
                    name = f"chain raised {type(exc).__name__}"
                    tally[name] = tally.get(name, 0) + 1
                    break
                assert isinstance(d, PointSeed) or subset(d, image)
                d = image
        assert tally == {"fast": 91, "MultiComponent": 3, "NotStarAtCenter": 55,
                         "DisconnectedUnion": 1, "degenerate draw": 0,
                         "chain raised DisconnectedUnion": 1}


class TestConvexVariants:
    def test_G_equals_g_when_convex(self):
        g1 = apply_operator("g", single(UNIT_SQUARE), PointSeed(ORIGIN))
        G1 = apply_operator("G", single(UNIT_SQUARE), PointSeed(ORIGIN))
        assert equal_canonical(g1, G1)

    def test_G_contains_g(self):
        seed = PointSeed(ORIGIN)
        q = apply_operator("g", single(STAR8), seed)
        G = apply_operator("G", single(STAR8), seed)
        assert subset(q, G)
        assert is_convex_ring(G._scaled)

    def test_P_contains_p(self):
        seed = PointSeed(pt(0, 0))
        p1 = p_step(ZIGZAG5, seed)
        P1 = apply_operator("P", single(ZIGZAG5), seed)
        assert subset(p1, P1)
        assert is_convex_ring(P1._scaled)

    def test_G_is_total_where_g_pinches(self):
        # in convex position with no inner site, the four pieces of g meet
        # only at the origin
        S = sites((-2, 0), (-1, -2), (1, -2), (1, 2))
        with pytest.raises(DisconnectedUnion):
            apply_operator("g", single(S), PointSeed(ORIGIN))
        G = apply_operator("G", single(S), PointSeed(ORIGIN))
        assert is_convex_ring(G._scaled) and G.kernel_contains(ORIGIN)
        for c, walls in zip(S.sites, S.cells):
            ((m, xs, ys),) = clip_components(S.hull._scaled, walls)
            assert subset(Region.from_integers(*_shift((m, xs, ys), -c)), G)
        res = iterate("G", single(S), PointSeed(ORIGIN))
        assert res.stop_reason == "fixed-point" and res.iterations == 4
        assert len(res.final) == 6

    def test_P_is_total_where_the_translates_pinch(self):
        # all three sites are nearest to (1, 0), and p's translates of the
        # triangle meet only there (TestPStepPointSeed); P is their hull
        S = sites((0, 0), (2, 0), (1, 1))
        s0 = pt(1, 0)
        P = apply_operator("P", single(S), PointSeed(s0))
        want = Region.hull_of([v + s0 - c for c in S.sites
                                      for v in S.hull.vertices])
        assert P == want

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            apply_operator("q", single(UNIT_SQUARE), PointSeed(ORIGIN))


def shipped(stem):
    (coll,) = load_scene(str(SCENES / f"{stem}.json")).collections.values()
    return coll


def first_site(coll):
    """The p-family seed the CLI uses for a one-member collection."""
    return min(coll.members[0].sites, key=lambda p: p.key())


class TestHullRegion:
    """G's and P's member images, the hulls of the clipped pieces, against
    the hulls of g's and p's images."""

    @pytest.mark.parametrize("stem", ["sset3", "ssprime"])
    @pytest.mark.parametrize("op", ["G", "P"])
    def test_matches_reference_hull_on_member_images(self, stem, op):
        """Along the first iterates of the chain, every member's G or P
        image is the Fraction monotone chain's hull of its g or p image;
        G's holds the origin in its kernel."""
        coll = shipped(stem)
        if op == "G":
            q, step = PointSeed(ORIGIN), g_of
        else:
            common = set.intersection(*(set(S.sites) for S in coll.members))
            q, step = PointSeed(min(common, key=lambda p: p.key())), p_step
        hulled = 0
        for _ in range(3):
            for S in coll.members:
                R = step(S, q)
                want = Region.from_ring(reference_hull(R.vertices))
                got = apply_operator(op, single(S), q)
                assert got == want
                assert op == "P" or got.kernel_contains(ORIGIN)
                hulled += got.vertices != R.vertices
            q = apply_operator(op, coll, q)
        assert hulled

    def test_origin_outside_the_hull_is_not_in_its_kernel(self):
        R = Region.from_ring([pt(1, 1), pt(3, 1), pt(2, 2), pt(3, 3), pt(1, 3)])
        H = hull_of_rings([R._scaled])
        assert H.vertices == (pt(1, 1), pt(3, 1), pt(3, 3), pt(1, 3))
        assert not H.kernel_contains(ORIGIN)

    @given(lattice_sites)
    @example([(-2, 0), (-1, -2), (1, -2), (1, 2)])
    @settings(max_examples=100, deadline=None)
    def test_G_and_P_are_hulls_of_g_and_p(self, coords):
        """Along the first chain steps, G and P are the exact hulls of g's
        and p's images, G's with the origin in its kernel, wherever g and p
        do not raise; where G or P raises, g or p raises the same error."""
        try:
            S = sites(*coords)
        except DegenerateHull:
            assume(False)
        s0 = min(S.sites, key=lambda p: p.key())
        for op, step, q in (("G", g_of, PointSeed(ORIGIN)), ("P", p_step, PointSeed(s0))):
            for _ in range(3):
                try:
                    got = apply_operator(op, single(S), q)
                except GeometryError as exc:
                    with pytest.raises(type(exc)):
                        step(S, q)
                    break
                try:
                    image = step(S, q)
                except GeometryError:
                    pass
                else:
                    want = Region.hull_of(image.vertices)
                    assert got == want
                    assert op == "P" or got.kernel_contains(ORIGIN)
                q = got

    def test_no_envelope_from_a_convex_seed(self, monkeypatch):
        """A single member's G and P images of a point seed or a convex
        region are hulls and convex Minkowski walks: no radial envelope."""
        def unused(*args):
            raise AssertionError("cycle_envelope called")
        monkeypatch.setattr(errdiff.starunion, "cycle_envelope", unused)
        monkeypatch.setattr(errdiff.operators, "cycle_envelope", unused)
        for S in (STAR8, ZIGZAG5, shipped("sset3").members[0]):
            for op, q in (("G", PointSeed(ORIGIN)), ("P", PointSeed(S.sites[0]))):
                for _ in range(3):
                    q = apply_operator(op, single(S), q)
                    assert is_convex_ring(q._scaled)


def nested_g_family(op, SS, q):
    """g or G over a collection as two layers of envelopes: each member's
    image (the envelope of its g pieces, or its hull), then one envelope
    of the members' images around the origin."""
    if op == "g":
        parts = [cycle_envelope(_star_cycles(_g_pieces(S, q)), ORIGIN) for S in SS]
    else:
        parts = [apply_operator("G", single(S), q) for S in SS]
    return cycle_envelope([star_cycle(R._scaled, ORIGIN) for R in parts], ORIGIN)


def general_g_family(op, SS, q):
    """g or G over a collection by the general union: of every member's
    recentred g pieces, or of the member hulls."""
    if op == "g":
        parts = [Region(*ring) for S in SS for ring in _star_cycles(_g_pieces(S, q))]
    else:
        parts = [apply_operator("G", single(S), q) for S in SS]
    return union_one_region(parts)


@st.composite
def lattice_collections(draw, shared=False):
    """Two or three lattice site sets; with shared, each also holds one
    drawn site."""
    extra = [draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))] if shared else []
    members = []
    for i, coords in enumerate(draw(st.lists(lattice_sites, min_size=2, max_size=3))):
        coords = coords + [c for c in extra if c not in coords]
        try:
            members.append(sites(*coords, id=f"S{i}"))
        except DegenerateHull:
            assume(False)
    return Collection(tuple(members))


# A alone pinches at the origin (TestConvexVariants); B fills the pinch
PINCHED = sites((-2, 0), (-1, -2), (1, -2), (1, 2), id="A")
FILLER = sites((0, 0), (1, 0), (0, 1), (1, 1), id="B")


class TestPooledGFamily:
    """g over a collection is one envelope of every member's pieces, and G
    one envelope of the member hulls; both against the two-layer form and
    the general union."""

    def check_chain(self, op, SS, steps):
        """Along the chain from the origin, op's image is the nested form
        wherever that exists, and the general union wherever that is one
        region; where op raises, both oracles raise too."""
        q = PointSeed(ORIGIN)
        for _ in range(steps):
            try:
                got = apply_operator(op, SS, q)
            except GeometryError:
                with pytest.raises(GeometryError):
                    nested_g_family(op, SS, q)
                with pytest.raises(GeometryError):
                    general_g_family(op, SS, q)
                return
            try:
                want = nested_g_family(op, SS, q)
            except GeometryError:
                pass
            else:
                assert got == want
            try:
                want = general_g_family(op, SS, q)
            except GeometryError:
                pass
            else:
                assert equal_canonical(got, want)
            assert got.kernel_contains(ORIGIN)
            q = got

    @given(lattice_collections())
    @example(Collection((PINCHED, FILLER)))
    @settings(max_examples=40, deadline=None)
    def test_matches_nested_and_general_unions(self, SS):
        for op in ("g", "G"):
            self.check_chain(op, SS, 3)

    @pytest.mark.parametrize("op", ["g", "G"])
    def test_ssprime_chain(self, op):
        """The whole shipped ssprime chain, to its certified stop."""
        SS = shipped("ssprime")
        self.check_chain(op, SS, iterate(op, SS, PointSeed(ORIGIN)).iterations)

    def test_total_where_a_member_pinches(self):
        """A's own g image pinches at the origin, but with B the union of
        all pieces is one region star-shaped around it: g returns it, and
        the chain stops certified."""
        seed = PointSeed(ORIGIN)
        with pytest.raises(DisconnectedUnion):
            apply_operator("g", single(PINCHED), seed)
        SS = Collection((PINCHED, FILLER))
        with pytest.raises(DisconnectedUnion):
            nested_g_family("g", SS, seed)
        q = seed
        for _ in range(6):
            got = apply_operator("g", SS, q)
            assert got.kernel_contains(ORIGIN)
            assert equal_canonical(got, general_g_family("g", SS, q))
            if q is seed:
                assert len(got) == 18
            q = got
        res = iterate("g", SS, seed)
        assert (res.stop_reason, res.iterations, len(res.final)) == ("certified", 29, 11)


def general_p_family(op, SS, d):
    """p or P over a collection by the general union of the member
    images."""
    return union_one_region([apply_operator(op, single(S), d) for S in SS])


class TestPooledPFamily:
    """p and P over a collection unite the member images in one envelope,
    around the seed point or the members' shared site, or in the general
    union where that envelope fails; against the general union of the
    same images."""

    def check_chain(self, op, SS, steps):
        """Along the chain from the shared site, op's image is the general
        union of the member images, field for field; where op raises, so
        does that union.  Returns how the chain ended."""
        d = PointSeed(shared_site(SS))
        for _ in range(steps):
            try:
                got = apply_operator(op, SS, d)
            except GeometryError as exc:
                with pytest.raises(GeometryError):
                    general_p_family(op, SS, d)
                return f"{op} raised {type(exc).__name__}"
            assert got == general_p_family(op, SS, d)
            d = got
        return f"{op} united every step"

    @given(lattice_collections(shared=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_general_union(self, SS):
        for op in ("p", "P"):
            event(self.check_chain(op, SS, 3))

    def test_an_image_that_misses_the_shared_site_from_its_kernel(self):
        # at the second step one member's image is not star-shaped around
        # the shared site (-2, -3), so the images go to the general union
        SS = Collection((
            sites((-2, -3), (0, 1), (1, -1), (2, -2), (3, 1), id="S0"),
            sites((-2, -3), (-2, 2), (-2, 3), (-1, 3), (0, -2), (0, -1), (1, -2), id="S1"),
            sites((-2, -3), (-1, -3), (2, -2), (2, 2), id="S2")))
        z = shared_site(SS)
        d = apply_operator("p", SS, PointSeed(z))
        images = [p_step(S, d) for S in SS.members]
        with pytest.raises(NotStarAtCenter):
            [star_cycle(R._scaled, z) for R in images]
        assert apply_operator("p", SS, d) == union_one_region(images)

    @pytest.mark.parametrize("op", ["p", "P"])
    def test_ssprime_chain(self, op):
        """The whole shipped ssprime chain, to its certified stop."""
        SS = shipped("ssprime")
        steps = iterate(op, SS, PointSeed(shared_site(SS))).iterations
        assert self.check_chain(op, SS, steps) == f"{op} united every step"


def shift_identity_chain(S, steps, note=lambda outcome: None):
    """Check p(ch S + Q) = ch S + g(Q) and P(ch S + Q) = ch S + G(Q) along
    the g and G chains from the origin, and the p and P chains from the
    CLI's seed site s0, whose first image is ch S = ch S + {0}.  Where g
    raises, p takes the general route, whose image must hold its input;
    where g raises DisconnectedUnion, that image must also equal the
    envelope of hull sums (hull_sums_envelope) field for field.  Either
    way the g side ends there.  Each chain's outcome goes to note.
    Returns the number of equal p steps, of equal P steps, and of such g
    failures."""
    SS = single(S)
    s0 = _seed_for(SS, "S", "fset")
    counts = [0, 0, 0]
    for k, (g, p) in enumerate((("g", "p"), ("G", "P"))):
        q, d = PointSeed(ORIGIN), apply_operator(p, SS, s0)
        assert equal_canonical(d, S.hull)
        for _ in range(steps):
            try:
                q = apply_operator(g, SS, q)
            except DisconnectedUnion:
                assert g == "g"
                image = apply_operator(p, SS, d)
                assert image == hull_sums_envelope(S, d)
                assert subset(d, image)
                note("g raised DisconnectedUnion: p equals the envelope of hull sums")
                counts[2] += 1
                break
            except (MultiComponent, NotStarAtCenter) as exc:
                assert g == "g"
                assert subset(d, apply_operator(p, SS, d))
                note(f"g raised {type(exc).__name__}: p takes the general route")
                counts[2] += 1
                break
            d = apply_operator(p, SS, d)
            assert equal_canonical(d, minkowski_convex_star(S.hull, q))
            counts[k] += 1
        else:
            note(f"{g} and {p} equal at every step")
    return counts


class TestShiftIdentity:
    """With phi(Q) = ch S + Q, p∘phi = phi∘g and P∘phi = phi∘G on a
    single site set: the two sides run different code (g's pooled
    envelope against p's radial route, G's hull against P's convex walk),
    so each side checks the other.  Where g's envelope pinches, p's
    general route is checked against the envelope of hull sums, a third
    construction that only the tests keep."""

    @given(lattice_sites)
    @example([(-2, 0), (-1, -2), (1, -2), (1, 2)])
    @settings(max_examples=100, deadline=None)
    def test_p_and_P_follow_g_and_G(self, coords):
        try:
            S = sites(*coords)
        except DegenerateHull:
            assume(False)
        equal_p, equal_P, g_failed = shift_identity_chain(S, 4, event)
        assert equal_P == 4 and (equal_p == 4 or g_failed == 1)

    def test_counts_on_shipped_and_pinched_sets(self):
        """The identity on a fixed list of sets, with the g failures
        counted: the pinched set PINCHED fails at g's first step."""
        got = [shift_identity_chain(S, 4) for S in
               (UNIT_SQUARE, DIAMOND, STAR8, ZIGZAG5, PINCHED, shipped("sset3").members[0])]
        assert got == [[4, 4, 0]] * 4 + [[0, 4, 1], [4, 4, 0]]


def rungs_of(q):
    """The rungs at which q is snapped: each D of SNAP_RUNGS with D * D <= q.m."""
    return [D for D in SNAP_RUNGS if D * D <= q.m]


def reference_candidate(q, D):
    """q's snap candidate at rung D on Points: each vertex coordinate's
    limit_denominator(D), q's vertices located in the raw snapped ring, then
    Region.from_ring of the snapped Points; None when no coordinate moves,
    a vertex of q lies outside, or the ring is not a valid region."""
    ring = [Point(v.x.limit_denominator(D), v.y.limit_denominator(D)) for v in q.vertices]
    if ring == list(q.vertices):
        return None
    scaled = over_common_denominator(ring)
    if any(point_in_ring(scaled, v) < 0 for v in q.vertices):
        return None
    try:
        return Region.from_ring(ring)
    except GeometryError:
        return None


def reference_rungs(q):
    """snap_rungs on Points: reference_candidate at each of q's rungs."""
    return [reference_candidate(q, D) for D in rungs_of(q)]


def reference_snap_candidate(op, q):
    """snap_candidate on Points: the first of q's reference_rungs that holds
    q and, for g and G, keeps the origin in its kernel."""
    return next((C for C in reference_rungs(q) if C is not None
                 and (op not in ("g", "G") or C.kernel_contains(ORIGIN))
                 and subset(q, C)), None)


def hair_off(k):
    """Radii a hair off a fraction whose denominator is at most a rung,
    k / 10**n."""
    return st.builds(lambda r, k, n: r + F(k, 10**n),
                     st.sampled_from(SNAP_RUNGS).flatmap(
                         lambda D: st.fractions(min_value=1, max_value=4, max_denominator=D)),
                     k, st.integers(2, 30))


# radii that every rung snaps to themselves, that sit a hair off a fraction
# with a small denominator, or that snap anywhere
snap_radii = st.one_of(
    st.fractions(min_value=F(1, 2), max_value=4, max_denominator=SNAP_RUNGS[0]),
    hair_off(st.integers(-3, 3)),
    st.fractions(min_value=F(1, 2), max_value=4, max_denominator=10**6))
# radii a hair below such a fraction, which the snap pushes outward
outward_radii = hair_off(st.integers(-3, -1))


def snapped(q, D):
    """q after the snap at rung D, for -10 < q < 10, read off the reflex
    vertex (q, 1) of a pentagon whose other vertices do not move: moved
    either way, a reflex vertex stays in the snapped ring, so the candidate
    is not refused.  q itself where D is no rung of the pentagon
    (D * D > its m) or no coordinate moves."""
    ring = Region.from_ring([pt(-10, 0), pt(10, 0), pt(10, 1), pt(q, 1), pt(-10, 2)])
    rungs = rungs_of(ring)
    if D not in rungs:
        return q
    cand = list(snap_rungs(ring))[rungs.index(D)]
    return q if cand is None else next(v.x for v in cand.vertices
                                       if v.y == 1 and v.x != 10)


def box(h):
    """The square [-h, h]^2, star-shaped around the origin."""
    return Region.from_ring([pt(-h, -h), pt(h, -h), pt(h, h), pt(-h, h)])


class TestRoundCoordinate:
    """At each rung D, a snap candidate rounds each coordinate to the
    nearest fraction with denominator at most D."""

    def test_snaps_to_third(self):
        assert [snapped(F(33333333, 10**8), D) for D in SNAP_RUNGS] == [F(1, 3)] * 4

    def test_identity_on_small_fraction(self):
        # 2/5 alone is below every rung's gate; a hair off it, every rung
        # snaps back to it
        for D in SNAP_RUNGS:
            assert snapped(F(2, 5), D) == F(2, 5)
            assert snapped(F(2, 5) + F(1, 10**9), D) == F(2, 5)

    def test_mixed_number(self):
        assert [snapped(F(16, 3) + F(1, 10**9), D) for D in SNAP_RUNGS] == [F(16, 3)] * 4

    def test_negative_floor_convention(self):
        for D in SNAP_RUNGS:
            assert snapped(F(-7, 2) + F(1, 10**10), D) == F(-7, 2)
            assert snapped(F(-1, 10**10), D) == 0

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=10**9),
           st.sampled_from(SNAP_RUNGS))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_close(self, q, D):
        r = snapped(q, D)
        if D * D > q.denominator:
            assert r == q
            return
        assert r.denominator <= D
        assert abs(r - q) <= F(1, 2 * D)
        assert snapped(r + F(1, 10**30), D) == r

    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**6),
           st.integers(-3, 3), st.sampled_from(SNAP_RUNGS))
    @settings(max_examples=60, deadline=None)
    def test_commutes_with_integer_shift(self, q, m, D):
        assert snapped(q + m, D) == snapped(q, D) + m


def limit_denominator(x, m, D):
    """The reference: Fraction.limit_denominator on this interpreter."""
    return F(x, m).limit_denominator(D).as_integer_ratio()


@st.composite
def farey_midpoints(draw):
    """(x, m, D) with x / m exactly halfway between two neighbours a / b <
    c / d of the Farey sequence of order D (b c - a d = 1, b, d <= D <
    b + d), scaled by k: the two fractions limit_denominator chooses
    between lie equally near, and the tie goes to the convergent."""
    D = draw(st.integers(1, 300))
    b = draw(st.integers(1, D))
    a = draw(st.integers(-3 * b, 3 * b).filter(lambda a: math.gcd(a, b) == 1))
    # the largest d <= D with a d = -1 (mod b)
    r = -pow(a, -1, b) % b if b > 1 else 0
    d = D - (D - r) % b
    c = (1 + a * d) // b
    k = draw(st.integers(1, 6))
    return k * (a * d + b * c), k * 2 * b * d, D


@st.composite
def small_denominators(draw):
    """(x, m, D) whose reduced denominator is already at most D, with a
    common factor k of up to 900 bits."""
    D = draw(st.integers(1, 2**12))
    b = draw(st.integers(1, D))
    k = draw(st.integers(1, 2**900))
    return k * draw(st.integers(-10**6, 10**6)), k * b, D


wide = st.integers(1, 2**900)
wide_numerators = st.integers(-2**900, 2**900)
wide_draws = st.tuples(wide_numerators, wide, st.integers(1, 2**12))
snap_draws = st.tuples(wide_numerators, wide, st.sampled_from(SNAP_RUNGS))
bound_lists = st.lists(st.integers(1, 2**12), min_size=1, max_size=5, unique=True).map(sorted)
# the rungs of an iterate: SNAP_RUNGS up to the largest that its m allows
rung_lists = st.integers(1, len(SNAP_RUNGS)).map(lambda k: list(SNAP_RUNGS[:k]))


class TestLimitDenominatorOnIntegers:
    """_limit_denominator, the snap's rounding on integers, against
    Fraction.limit_denominator, which CPython 3.12 rewrote: negative x,
    common denominators as wide as ssprime P's (890 bits), fractions
    already in range, and exact ties; one bound at a time, and every
    bound of an ascending list from one walk."""

    @given(st.one_of(wide_draws, snap_draws, small_denominators(), farey_midpoints()))
    @settings(max_examples=400, deadline=None)
    @example((-1, 2, 1))  # halfway between -1 and 0
    @example((1, 2, 1))  # halfway between 0 and 1
    @example((0, 3**500, 64))
    @example((-7 * 2**900 + 1, 2**901, 64))
    @example((3, 6, 1))  # 1/2 unreduced, a tie at D = 1
    @example((49, 99, 2))  # 1/2 is the nearest at D = 2
    def test_matches_limit_denominator(self, draw):
        x, m, D = draw
        assert _limit_denominator(x, m, [D]) == [limit_denominator(x, m, D)]

    @given(st.one_of(
        st.tuples(wide_numerators, wide, rung_lists | bound_lists),
        # a tie at one bound, walked through with the bounds around it
        st.tuples(farey_midpoints(), bound_lists).map(
            lambda t: (t[0][0], t[0][1], sorted({t[0][2], *t[1]}))),
        st.tuples(small_denominators(), rung_lists).map(lambda t: (t[0][0], t[0][1], t[1]))))
    @settings(max_examples=400, deadline=None)
    @example((-7 * 2**900 + 1, 2**901, list(SNAP_RUNGS)))
    @example((1, 3, list(SNAP_RUNGS)))  # the walk ends before the first rung
    @example((33333333, 10**8, list(SNAP_RUNGS)))
    def test_every_rung_matches_limit_denominator(self, draw):
        x, m, bounds = draw
        assert _limit_denominator(x, m, bounds) == [limit_denominator(x, m, D)
                                                    for D in bounds]

    def test_ties_go_to_the_convergent(self):
        # 1/2 lies halfway between 0 and 1, the convergent 0 wins; 5/12
        # lies halfway between 1/3 and 1/2 (D = 3), the convergent 1/2 wins
        assert _limit_denominator(1, 2, [1]) == [(0, 1)]
        assert _limit_denominator(5, 12, [3]) == [limit_denominator(5, 12, 3)] == [(1, 2)]
        assert _limit_denominator(5, 12, [2, 3, 12]) == [(1, 2), (1, 2), (5, 12)]

    def test_snap_builds_no_fraction(self, monkeypatch):
        eps = F(1, 10**25)
        q = Region.from_ring([pt(0, 0), pt(1, 0), pt(1, 1), pt(F(1, 3) + eps, 1), pt(0, 2)])

        def refused(*args, **kwargs):
            raise AssertionError("snap_rungs built a Fraction")

        monkeypatch.setattr(F, "__new__", refused)
        monkeypatch.setattr(F, "limit_denominator", refused)
        got = list(snap_rungs(q))
        monkeypatch.undo()
        want = Region.from_ring([pt(0, 0), pt(1, 0), pt(1, 1), pt(F(1, 3), 1), pt(0, 2)])
        # every rung snaps alike, so one build serves all four
        assert got == [want] * 4 and all(C is got[0] for C in got)


class TestRoundRegion:
    """A rung offers a snap candidate only when a coordinate moves, Q's
    vertices stay in the snapped ring, and that ring is a valid region."""

    def test_below_gate_untouched(self):
        # m = 64 < 16 * 16: no rung snaps Q
        q = Region.from_ring([pt(0, 0), pt(1, 0), pt(1, F(1, 64)), pt(0, 1)])
        assert list(snap_rungs(q)) == []
        assert snap_candidate("p", q) is None

    def test_wide_coordinates_rounded(self):
        # the moved vertex is reflex, so Q's own vertex stays in C; as the
        # apex of a triangle it would leave C, which refuses the candidate
        eps = F(1, 10**25)
        ring = [pt(0, 0), pt(1, 0), pt(1, 1), pt(F(1, 3) + eps, 1), pt(0, 2)]
        want = Region.from_ring([pt(0, 0), pt(1, 0), pt(1, 1), pt(F(1, 3), 1), pt(0, 2)])
        assert list(snap_rungs(Region.from_ring(ring))) == [want] * 4
        apex = [pt(0, 0), pt(1, 0), pt(F(1, 3) + eps, 1)]
        assert list(snap_rungs(Region.from_ring(apex))) == [None] * 4

    def test_revert_on_lost_simplicity(self):
        # the mouth of the notch, 2 - tiny to 2 + tiny, closes to the one
        # point (2, 4) at every rung: Q's vertices lie on C's boundary,
        # which touches itself there
        tiny = F(1, 10**25)
        ring = [pt(0, 0), pt(4, 0), pt(4, 4), pt(2 + tiny, 4), pt(F(5, 2), 1),
                pt(F(3, 2), 1), pt(2 - tiny, 4), pt(0, 4)]
        assert list(snap_rungs(Region.from_ring(ring))) == [None] * 4
        for D in SNAP_RUNGS:
            with pytest.raises(NotSimple):
                Region.from_ring([pt(v.x.limit_denominator(D), v.y) for v in ring])
        # a ring that flattens is refused sooner: Q's vertices leave it
        flat = [pt(0, 0), pt(1, F(1, 3) + tiny), pt(2, 0), pt(1, F(1, 3) + 2 * tiny)]
        assert list(snap_rungs(Region.from_ring(flat))) == [None] * 4

    def test_refuses_a_rung_where_an_extreme_coordinate_moves_inward(self, monkeypatch):
        # Q's greatest x, 15/16 + tiny, snaps down to 15/16 at every rung,
        # so the vertices that attain it lie outside each snapped ring: the
        # rungs are refused after walking some of Q's extreme coordinates,
        # and the dent's 1/2 + tiny is never walked
        tiny = F(1, 10**6)
        a = F(15, 16) + tiny
        q = Region.from_ring([pt(0, 0), pt(a, 0), pt(a, 1), pt(F(1, 2) + tiny, F(1, 2)),
                              pt(0, 1)])
        walked = []
        walk = errdiff.operators._limit_denominator

        def counted(x, m, bounds):
            walked.append(F(x, m))
            return walk(x, m, bounds)

        monkeypatch.setattr(errdiff.operators, "_limit_denominator", counted)
        assert list(snap_rungs(q)) == reference_rungs(q) == [None] * 3
        assert set(walked) <= {0, a, 1} and F(1, 2) + tiny not in walked

    def test_offers_a_candidate_that_loses_a_kernel_point(self):
        # the dent (x, 3) moves right onto (2, 3), so C holds Q's vertices,
        # but the steeper edge from (4, 4) cuts the old dent out of C's
        # kernel; every rung offers C all the same, and only snap_candidate
        # asks a candidate for a kernel point: the origin, for g and G
        tiny = F(1, 10**25)
        x = 2 - tiny
        q = Region.from_ring([pt(0, 0), pt(4, 0), pt(4, 4), pt(x, 3), pt(0, 4)])
        assert q.kernel_contains(pt(x, 3))
        cand = Region.from_ring([pt(0, 0), pt(4, 0), pt(4, 4), pt(2, 3), pt(0, 4)])
        assert list(snap_rungs(q)) == [cand] * 4
        assert all(cand.locate(v) >= 0 for v in q.vertices)
        assert not cand.kernel_contains(pt(x, 3))

    def test_wide_common_denominator_without_a_wide_coordinate(self):
        # m = lcm(16, 5, 9, 7) = 5040 >= 64 * 64, yet no coordinate's own
        # denominator passes 16, so no rung moves one
        q = Region.from_ring([pt(0, 0), pt(F(1, 16), 0), pt(F(1, 5), F(1, 9)), pt(0, F(1, 7))])
        assert q.m == 5040 and rungs_of(q) == [16, 64]
        assert list(snap_rungs(q)) == [None, None]


snap_offsets = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-2, max_value=2, max_denominator=SNAP_RUNGS[1]),
    st.fractions(min_value=-2, max_value=2, max_denominator=10**4))


class TestSnapOracle:
    """snap_rungs, on the integers of Q's ring, against the same candidates
    made on Points (reference_rungs), None included; and snap_candidate,
    the candidate iterate carries, against the first of them that holds Q
    (reference_snap_candidate)."""

    @given(star_rings(snap_radii) | star_rings(outward_radii),
           st.builds(Point, snap_offsets, snap_offsets))
    @settings(max_examples=300, deadline=None)
    # m = 5040, but no coordinate moves
    @example([pt(0, 0), pt(F(1, 16), 0), pt(F(1, 5), F(1, 9)), pt(0, F(1, 7))], ORIGIN)
    # Q lies in C, but the mouth of its notch closes to a point
    @example([pt(0, 0), pt(4, 0), pt(4, 4), pt(2 + F(1, 10**25), 4), pt(F(5, 2), 1),
              pt(F(3, 2), 1), pt(2 - F(1, 10**25), 4), pt(0, 4)], ORIGIN)
    def test_matches_the_point_oracle(self, ring, offset):
        q = Region.from_ring([v + offset for v in ring])
        assert list(snap_rungs(q)) == reference_rungs(q)
        for op in ("g", "p"):
            assert snap_candidate(op, q) == reference_snap_candidate(op, q)

    @pytest.mark.parametrize("stem", ["sset3", "ssprime"])
    @pytest.mark.parametrize("op", OPERATORS)
    def test_matches_the_point_oracle_on_every_chain_iterate(self, op, stem,
                                                             monkeypatch):
        # iterate snaps every iterate but the one it stops at
        offered = []

        def checked(op_, q):
            got = snap_candidate(op_, q)
            assert list(snap_rungs(q)) == reference_rungs(q)
            assert got == reference_snap_candidate(op_, q)
            offered.append(got is not None)
            return got

        monkeypatch.setattr(errdiff.operators, "snap_candidate", checked)
        coll = shipped(stem)
        seed = _seed_for(coll, stem, "gset" if op in "gG" else "fset")
        res = iterate(op, coll, seed)
        assert res.stop_reason == "certified"
        assert len(offered) == res.iterations - 1 and any(offered)


def immediate_certify(op, SS, Q):
    """The reference: certify as it ran before op(C) waited for the next
    iterate.  op(C) for Q's carried candidate C (snap_candidate) when
    op(C) ⊆ C, built at once, else None."""
    C = snap_candidate(op, Q)
    if C is None:
        return None
    image = errdiff.operators.apply_operator(op, SS, C)
    if subset_witness(image, C) is not None:
        return None
    return image


def iterate_immediate(op, SS, seed, max_iter):
    """iterate with immediate_certify: the certificate is made at Q_n and
    used at Q_n+1 when Q_n+1 lies in it, as before the deferral."""
    threshold = errdiff.operators.DIVERGENCE_FACTOR * max(S.hull.diameter_sq for S in SS)
    history = []
    cur, outer = seed, None
    for n in range(1, max_iter + 1):
        nxt = errdiff.operators.apply_operator(op, SS, cur)
        history.append(len(nxt))
        if isinstance(cur, Region) and equal_canonical(nxt, cur):
            return IterationResult(nxt, max(n - 1, 1), "fixed-point", history)
        if outer is not None and subset_witness(nxt, outer) is None:
            return IterationResult(outer, n, "certified", history, outer.area2 - nxt.area2)
        if nxt.diameter_sq > threshold:
            return IterationResult(nxt, n, "diverged", history)
        outer = immediate_certify(op, SS, nxt)
        cur = nxt
    return IterationResult(nxt, max_iter, "max-iterations", history)


def counted_runs(monkeypatch, *runs):
    """Each run (a callable) with the number of operator images it built:
    its result, or the GeometryError it raised, and the count."""
    calls = [0]
    apply = errdiff.operators.apply_operator

    def counted(*args):
        calls[0] += 1
        return apply(*args)

    monkeypatch.setattr(errdiff.operators, "apply_operator", counted)
    out = []
    for run in runs:
        calls[0] = 0
        try:
            res = run()
        except GeometryError as exc:
            res = type(exc).__name__
        out.append((res, calls[0]))
    return out


def run_summary(res):
    """What a run shipped: stop reason, count, set and gap, or the name of
    the GeometryError it raised."""
    if isinstance(res, str):
        return res
    return res.stop_reason, res.iterations, res.final, res.gap


class TestCertify:
    """iterate carries Q's snap candidate C and certifies with op(C) only
    when the next iterate lies in C and op(C) ⊆ C; op(C) is built only
    once the next iterate fits C."""

    TINY = F(1, 10**30)

    def test_accepts_an_invariant_candidate_holding_q(self):
        # the box just inside the minimal g-set of the unit square snaps to it
        q = box(F(1, 2) - self.TINY)
        C = snap_candidate("g", q)
        assert equal_canonical(C, box(F(1, 2)))
        got = certify("g", single(UNIT_SQUARE), C, q)
        assert equal_canonical(got, box(F(1, 2)))
        assert equal_canonical(immediate_certify("g", single(UNIT_SQUARE), q), got)

    def test_candidate_missing_q_is_refused(self, monkeypatch):
        # every rung moves every corner inward, so no candidate holds Q, and
        # a candidate that misses the next iterate is refused before the
        # operator is applied to it
        def unused(*args):
            raise AssertionError("op(C) computed for a candidate missing Q")

        monkeypatch.setattr(errdiff.operators, "apply_operator", unused)
        q = box(F(1, 2) + self.TINY)
        assert list(snap_rungs(q)) == [None] * 4
        assert snap_candidate("g", q) is None
        assert certify("g", single(UNIT_SQUARE), box(F(1, 2)), q) is None

    def test_g_family_refuses_a_candidate_without_the_origin_in_its_kernel(
            self, monkeypatch):
        # C holds Q and the origin, but the notch's right wall x = 3/4 hides
        # the origin from C's upper right corner: g and G refuse C before
        # they test Q ⊆ C, and p carries it
        q = box(F(1, 4))
        notched = Region.from_ring([pt(-1, -1), pt(1, -1), pt(1, 1), pt(F(3, 4), 1),
                                    pt(F(3, 4), F(1, 2)), pt(F(1, 2), F(1, 2)),
                                    pt(F(1, 2), 1), pt(-1, 1)])
        assert subset(q, notched) and not notched.kernel_contains(ORIGIN)
        calls = []

        def spy(name, fn):
            def called(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(errdiff.operators, name, called)
        monkeypatch.setattr(errdiff.operators, "snap_rungs", lambda Q: iter([notched]))
        spy("subset_witness", subset_witness)
        spy("apply_operator", apply_operator)
        for op in ("g", "G"):
            assert snap_candidate(op, q) is None
        assert calls == []
        assert snap_candidate("p", q) is notched
        assert calls == ["subset_witness"]

    def test_candidate_holding_q_but_not_invariant_is_refused(self):
        q = box(F(1, 4) - self.TINY)
        cand = snap_candidate("g", q)
        assert subset(q, cand)
        assert certify("g", single(UNIT_SQUARE), cand, q) is None
        assert immediate_certify("g", single(UNIT_SQUARE), q) is None

    @pytest.mark.parametrize("op", ["G", "P"])
    def test_convex_chains_ship_convex_invariant_sets(self, op):
        coll = shipped("sset3")
        seed = PointSeed(ORIGIN) if op == "G" else PointSeed(first_site(coll))
        res = iterate(op, coll, seed)
        assert res.stop_reason == "certified" and res.converged
        assert is_convex_ring(res.final._scaled)
        assert subset(apply_operator(op, coll, res.final), res.final)
        assert res.gap > 0 and not res.rounding_free

    @pytest.mark.parametrize("stem", ["sset2", "sset3"])
    def test_images_only_of_candidates_that_hold_the_next_iterate(self, stem, monkeypatch):
        # every operator image that is not the next chain step is a
        # candidate's, and that candidate holds the iterate just made
        apply = errdiff.operators.apply_operator
        coll = shipped(stem)
        for op in OPERATORS:
            seed = _seed_for(coll, stem, "gset" if op in "gG" else "fset")
            last, images = [seed], []

            def spied(op_, SS, Q):
                image = apply(op_, SS, Q)
                if Q is last[0]:
                    last[0] = image
                else:
                    assert subset(last[0], Q)
                    images.append(image)
                return image

            monkeypatch.setattr(errdiff.operators, "apply_operator", spied)
            res = iterate(op, coll, seed)
            assert (res.stop_reason == "certified") == (stem == "sset3")
            assert len(images) >= (stem == "sset3")

    @pytest.mark.parametrize("stem", ["sset1", "sset2", "sset3", "sset4",
                                      "square_center", "unit_square"])
    def test_deferred_matches_immediate_on_shipped_scenes(self, stem, monkeypatch):
        coll = shipped(stem)
        for op in OPERATORS:
            seed = _seed_for(coll, stem, "gset" if op in "gG" else "fset")
            (deferred, d_calls), (immediate, i_calls) = counted_runs(
                monkeypatch, lambda: iterate(op, coll, seed),
                lambda: iterate_immediate(op, coll, seed, MAX_ITER))
            assert run_summary(deferred) == run_summary(immediate)
            assert d_calls <= i_calls

    def test_deferred_matches_immediate_on_seeded_collections(self, monkeypatch):
        # each member of the first 8 draws alone, from the origin and from
        # the draw's shared site: two or three members together mostly have
        # no bounded minimal set, so their chains only run to the cap while
        # the rationals grow (P's pass 1 500 bits by iteration 11)
        stops, saved = {}, 0
        for SS in seeded_collections(random.Random(36), 8):
            for S in SS:
                for op in OPERATORS:
                    start = PointSeed(ORIGIN if op in "gG" else shared_site(SS))
                    (deferred, d_calls), (immediate, i_calls) = counted_runs(
                        monkeypatch, lambda: iterate(op, single(S), start, 60),
                        lambda: iterate_immediate(op, single(S), start, 60))
                    assert run_summary(deferred) == run_summary(immediate)
                    assert d_calls <= i_calls
                    saved += i_calls - d_calls
                    stop = run_summary(deferred)
                    stop = stop if isinstance(stop, str) else stop[0]
                    stops[stop] = stops.get(stop, 0) + 1
        assert stops == {"fixed-point": 27, "certified": 34, "max-iterations": 24,
                         "DisconnectedUnion": 3}
        # the futile images of candidates that miss the next iterate
        assert saved == 334


# the certified sets of the shipped sset3 and ssprime runs, vertex by
# vertex as the CLI writes them, pinned apart from the iteration counts
# and gaps: each is an exact fixed point, op(F) = F
CERTIFIED_SETS = {
    ("sset3", "g"): [["-3/2", "-1/2"], ["-1/2", "-3/2"], ["-1/6", "-7/6"], ["1/2", "-3/2"],
                     ["5/2", "-3/2"], ["5/2", "3/2"], ["3/2", "5/2"], ["0", "1"],
                     ["-1/2", "3/2"], ["-3/2", "1/2"]],
    ("sset3", "G"): [["-3/2", "-1/2"], ["-1/2", "-3/2"], ["5/2", "-3/2"], ["5/2", "3/2"],
                     ["3/2", "5/2"], ["-1/2", "3/2"], ["-3/2", "1/2"]],
    ("sset3", "p"): [["-3/2", "-3/2"], ["3/2", "-9/2"], ["11/6", "-25/6"], ["5/2", "-9/2"],
                     ["9/2", "-9/2"], ["9/2", "5/2"], ["5/2", "9/2"], ["1", "3"],
                     ["1/2", "7/2"], ["-3/2", "3/2"]],
    ("sset3", "P"): [["-3/2", "-3/2"], ["3/2", "-9/2"], ["9/2", "-9/2"], ["9/2", "5/2"],
                     ["5/2", "9/2"], ["1/2", "7/2"], ["-3/2", "3/2"]],
    ("ssprime", "g"): [["-3", "-7/2"], ["-1", "-9/2"], ["1", "-9/2"], ["1", "1/2"],
                       ["1/2", "1/2"], ["1/2", "1"], ["-1/2", "1"], ["-1/2", "1/2"],
                       ["-3", "1/2"]],
    ("ssprime", "G"): [["-3", "-7/2"], ["-1", "-9/2"], ["1", "-9/2"], ["1", "1/2"],
                       ["1/2", "1"], ["-1/2", "1"], ["-3", "1/2"]],
    ("ssprime", "p"): [["-6", "-15/2"], ["-2", "-19/2"], ["2", "-19/2"], ["2", "3/2"],
                       ["3/2", "3/2"], ["3/2", "2"], ["-3/2", "2"], ["-3/2", "3/2"],
                       ["-6", "3/2"]],
    ("ssprime", "P"): [["-6", "-15/2"], ["-2", "-19/2"], ["2", "-19/2"], ["2", "3/2"],
                       ["3/2", "2"], ["-3/2", "2"], ["-6", "3/2"]],
}


@pytest.mark.parametrize("stem, op", sorted(CERTIFIED_SETS))
def test_certified_sets_are_pinned_fixed_points(stem, op):
    coll = shipped(stem)
    res = iterate(op, coll, _seed_for(coll, stem, "gset" if op in "gG" else "fset"))
    assert res.stop_reason == "certified"
    assert [[scalar_str(v.x), scalar_str(v.y)] for v in res.final.vertices] == \
        CERTIFIED_SETS[stem, op]
    assert apply_operator(op, coll, res.final) == res.final


class TestIterate:
    def test_unit_square_one_iteration(self):
        res = iterate("g", single(UNIT_SQUARE), PointSeed(ORIGIN))
        h = F(1, 2)
        assert res.converged and res.iterations == 1
        assert list(res.final.vertices) == [pt(-h, -h), pt(h, -h), pt(h, h),
                                            pt(-h, h)]
        assert res.rounding_free and res.stop_reason == "fixed-point"

    def test_grid9_one_iteration(self):
        res = iterate("g", single(GRID9), PointSeed(ORIGIN))
        assert res.converged and res.iterations == 1

    def test_star8_four_iterations(self):
        res = iterate("g", single(STAR8), PointSeed(ORIGIN))
        assert res.converged and res.iterations == 4
        assert res.rounding_free

    def test_zigzag5_six_iterations(self):
        res = iterate("g", single(ZIGZAG5), PointSeed(ORIGIN))
        assert res.converged and res.iterations == 6

    def test_final_is_fixed_point(self):
        for op in ("g", "G"):
            res = iterate(op, single(STAR8), PointSeed(ORIGIN))
            again = apply_operator(op, single(STAR8), res.final)
            assert equal_canonical(again, res.final)

    def test_p_run_from_site_seed(self):
        res = iterate("p", single(UNIT_SQUARE), PointSeed(pt(0, 0)), max_iter=50)
        assert res.converged
        again = apply_operator("p", single(UNIT_SQUARE), res.final)
        assert equal_canonical(again, res.final)

    def test_max_iter_reported(self):
        res = iterate("g", single(ZIGZAG5), PointSeed(ORIGIN), max_iter=2)
        assert not res.converged and res.stop_reason == "max-iterations"
        assert res.iterations == 2

    def test_max_iter_below_one_is_refused(self):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            iterate("g", single(ZIGZAG5), PointSeed(ORIGIN), max_iter=0)

    def test_divergence_guard(self, monkeypatch):
        monkeypatch.setattr(errdiff.operators, "DIVERGENCE_FACTOR",
                            F(1, 4) / STAR8.hull.diameter_sq)
        res = iterate("g", single(STAR8), PointSeed(ORIGIN))
        assert not res.converged and res.stop_reason == "diverged"

    def test_history_matches_run_length(self):
        res = iterate("g", single(STAR8), PointSeed(ORIGIN))
        assert len(res.vertex_count_history) == res.iterations + 1
        assert res.vertex_count_history[-1] == len(res.final.vertices)

    @pytest.mark.parametrize("stem", ["sset1", "sset2", "sset4",
                                      "square_center", "unit_square"])
    def test_small_scenes_stop_exactly(self, stem):
        coll = shipped(stem)
        s0 = first_site(coll)
        for op, seed in (("g", ORIGIN), ("G", ORIGIN), ("p", s0), ("P", s0)):
            res = iterate(op, coll, PointSeed(seed))
            assert res.stop_reason == "fixed-point", op
            assert res.gap == 0 and res.rounding_free
            assert "gap" not in res.log_records()[-1]

    def test_log_records_shape(self):
        res = iterate("g", single(STAR8), PointSeed(ORIGIN))
        recs = res.log_records()
        assert len(recs) == len(res.vertex_count_history) + 1
        assert recs[0]["iteration"] == 1
        assert recs[-1]["converged"] is True
        assert recs[-1]["stop"] == "fixed-point"

    def test_seed_must_fit_operator(self):
        with pytest.raises(KernelViolation):
            iterate("g", single(UNIT_SQUARE), PointSeed(pt(2, 2)))


class TestRunInvariants:
    """Every iterate grows, stays star-shaped, and G dominates g."""

    CASES = [(UNIT_SQUARE, 3), (DIAMOND, 4), (STAR8, 5), (ZIGZAG5, 7)]

    def iterates(self, op, S, n):
        out = []
        q = PointSeed(ORIGIN)
        for _ in range(n):
            q = apply_operator(op, single(S), q)
            out.append(q)
        return out

    @pytest.mark.parametrize("S,n", CASES, ids=lambda v: getattr(v, "id", v))
    def test_monotone_and_star(self, S, n):
        for op in ("g", "G"):
            chain = self.iterates(op, S, n)
            for a, b in zip(chain, chain[1:]):
                assert subset(a, b)
            for q in chain:
                assert q.kernel_contains(ORIGIN)

    @pytest.mark.parametrize("S,n", CASES, ids=lambda v: getattr(v, "id", v))
    def test_G_dominates_g(self, S, n):
        g_chain = self.iterates("g", S, n)
        G_chain = self.iterates("G", S, n)
        for a, b in zip(g_chain, G_chain):
            assert subset(a, b)

    def test_p_monotone(self):
        for S in (UNIT_SQUARE, DIAMOND, ZIGZAG5):
            chain = []
            d = PointSeed(S.sites[0])
            for _ in range(4):
                d = apply_operator("p", single(S), d)
                chain.append(d)
            for a, b in zip(chain, chain[1:]):
                assert subset(a, b)

    def test_seed_region_contained_in_first_iterate(self):
        h = F(1, 4)
        q0 = Region.from_ring([pt(-h, -h), pt(h, -h), pt(h, h), pt(-h, h)])
        for op in ("g", "G"):
            q1 = apply_operator(op, single(DIAMOND), q0)
            assert subset(q0, q1)
        d1 = apply_operator("p", single(DIAMOND), q0)
        assert subset(q0, d1)
