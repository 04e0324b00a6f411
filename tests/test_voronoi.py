"""Site sets, bisector cells, corners and inners, projection, boundedness,
and the walk that splits a ring into cell pieces."""
import math
from fractions import Fraction as F
from math import isqrt, lcm
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from errdiff.booleans import Triple, Wall, _reduced, subset
import errdiff.voronoi
from errdiff.cli import _seed_for
from errdiff.operators import (
    Collection,
    _star_cycles,
    apply_operator,
    cell_pieces,
    iterate,
    p_step,
)
from errdiff.scene import load_scene
from errdiff.geometry import (
    ORIGIN,
    DegenerateHull,
    GeometryError,
    MultiComponent,
    Point,
    Region,
    Scaled,
    _canonical_order,
    _ring_locate,
    dist_sq,
    is_simple_ring,
    point_of,
    pt,
    ratios,
    ring_area2,
)
from errdiff.voronoi import (
    AssumptionReport,
    CoincidentSites,
    SiteSet,
    UnboundedCell,
    _corner_ring,
    _nearest,
    assumption_report,
    bisector,
    hull_edge_normals,
    inner_cell_diameter_sq,
    materialize_cell,
    project_ratios,
    split_ring,
)
from test_booleans import bbox, clip, outcome, reference_clip, star_rings, wide_radii
from test_geometry import _angle_sorted, _cleaned, clip_components, clipped, level, rotated, wall


def corners(S: SiteSet) -> tuple:
    """The sites on the hull boundary: every site that is not an inner."""
    return tuple(s for s in S.sites if S.hull.locate(s) == 0)


def nearest_site(S, x):
    """The site of S nearest to the Point x, by project_ratios."""
    return point_of(project_ratios(S, ratios(x)))


def cell_walls(S: SiteSet, c: Point) -> tuple:
    """The facet walls of the cell of the site c: its entry of S.cells,
    which keeps S.sites order."""
    return S.cells[S.sites.index(c)]


def cell_components(R: Region, walls) -> list[list[Point]]:
    """Every component of R clipped by the walls as a Point ring, in
    vertex-key order."""
    return clip(R.vertices, *walls)


SQUARE_CORNERS = SiteSet((pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)), id="sq")
SQUARE_CENTER = SiteSet(
    (pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1), pt("1/2", "1/2")), id="sqc")

coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
points = st.builds(Point, coord, coord)


class TestBisector:
    def test_horizontal(self):
        assert bisector(pt(0, 0), pt(1, 0)) == (2, 0, 1)

    def test_vertical(self):
        assert bisector(pt(0, 0), pt(0, 2)) == (0, 1, 1)

    def test_diagonal(self):
        hp = bisector(pt("1/2", "1/2"), pt(0, 0))
        assert hp == (-2, -2, -1)  # x + y >= 1/2
        assert level(hp, pt(1, 1)) <= 0
        assert level(hp, pt(0, 0)) > 0

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentSites):
            bisector(pt(1, 2), pt(1, 2))


class TestSiteSet:
    def test_duplicates_rejected(self):
        with pytest.raises(CoincidentSites):
            SiteSet((pt(0, 0), pt(1, 1), pt(0, 0)))

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateHull):
            SiteSet((pt(0, 0), pt(2, 0)))
        with pytest.raises(DegenerateHull):
            SiteSet((pt(0, 0), pt(1, 0), pt(2, 0)))

    def test_corners_and_inners_square(self):
        S = SQUARE_CORNERS
        assert len(corners(S)) == 4 and S.inners == ()

    def test_corners_and_inners_center(self):
        S = SQUARE_CENTER
        assert S.inners == (pt("1/2", "1/2"),)
        assert len(corners(S)) == 4

    def test_edge_site_is_corner(self):
        S = SiteSet((pt(0, 0), pt(2, 0), pt(1, 0), pt(0, 2)))
        assert pt(1, 0) in corners(S)

    def test_eight_point_star(self):
        S = SiteSet(tuple(
            pt(x, y) for x, y in [(-2, 0), (2, 0), (0, -2), (0, 2),
                                  ("1/2", "1/2"), ("-1/2", "1/2"),
                                  ("1/2", "-1/2"), ("-1/2", "-1/2")]))
        assert len(corners(S)) == 4 and len(S.inners) == 4


class TestCell:
    def test_corner_cell_walls(self):
        walls = cell_walls(SQUARE_CORNERS, pt(0, 0))
        with pytest.raises(UnboundedCell):
            materialize_cell(SQUARE_CORNERS, pt(0, 0))
        # x + y <= 1, the wall of the opposite corner, meets the cell at
        # (1/2, 1/2) only and is not a facet
        assert sorted(walls) == sorted([
            (2, 0, 1),   # x <= 1/2
            (0, 2, 1),   # y <= 1/2
        ])

    def test_center_cell_is_diamond(self):
        got = materialize_cell(SQUARE_CENTER, pt("1/2", "1/2")).vertices
        assert list(got) == [pt(0, "1/2"), pt("1/2", 0), pt(1, "1/2"), pt("1/2", 1)]
        assert inner_cell_diameter_sq(SQUARE_CENTER, pt("1/2", "1/2")) == 1

    def test_inner_cell_past_the_first_box(self):
        # the cell of (0, 0) reaches y = 479/30, past the first box of
        # box_clip_cell (top at 14.2): a long thin cell
        S = SiteSet((pt(2, "-3/5"), pt("-4/3", "-2/5"), pt("3/2", "3/5"), pt(0, 0)))
        assert list(materialize_cell(S, pt(0, 0)).vertices) == [
            pt("-331/60", "479/30"), pt("109/600", "-109/36"), pt("697/700", "-11/35")]

    def test_corner_cell_not_materializable(self):
        with pytest.raises(UnboundedCell):
            materialize_cell(SQUARE_CORNERS, pt(0, 0))


class TestIntersect:
    def test_square_in_corner_cell(self):
        R = Region.from_ring([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
        (got,) = clipped(R, cell_walls(SQUARE_CORNERS, pt(0, 0)))
        assert list(got.vertices) == [
            pt(0, 0), pt("1/2", 0), pt("1/2", "1/2"), pt(0, "1/2")]

    def test_disjoint_is_none(self):
        R = Region.from_ring([pt(5, 5), pt(6, 5), pt(6, 6), pt(5, 6)])
        assert clipped(R, cell_walls(SQUARE_CORNERS, pt(0, 0))) == []

    def test_inside_is_identity(self):
        R = Region.from_ring(
            [pt(0, 0), pt("1/4", 0), pt("1/4", "1/4"), pt(0, "1/4")])
        (got,) = clipped(R, cell_walls(SQUARE_CORNERS, pt(0, 0)))
        assert got.vertices == R.vertices

    def test_multicomponent_propagates(self):
        # square with a bottom notch; the lower site's cell keeps only the legs
        notched = Region.from_ring([
            pt(0, 0), pt(1, 0), pt(1, 2), pt(2, 2), pt(2, 0),
            pt(3, 0), pt(3, 3), pt(0, 3)])
        low = pt("3/2", "1/2")
        sites = SiteSet((low, pt("3/2", "5/2"), pt(100, 1)))
        assert len(cell_components(notched, cell_walls(sites, low))) == 2
        pieces = cell_pieces(sites, notched._scaled)
        assert len(dict(pieces)[low]) == 2
        with pytest.raises(MultiComponent):
            _star_cycles(pieces)


    def test_one_component_after_a_later_wall_rejoins(self):
        # y <= 1 splits the notched square into its two legs, and x <= 1
        # then drops the right leg: R ∩ V is one square, whatever the order
        # of the walls
        notched = Region.from_ring([
            pt(0, 0), pt(1, 0), pt(1, 2), pt(2, 2), pt(2, 0),
            pt(3, 0), pt(3, 3), pt(0, 3)])
        c = pt("1/2", "1/2")
        sites = SiteSet((c, pt("1/2", "3/2"), pt("3/2", "1/2")))
        V = cell_walls(sites, c)
        assert V == (bisector(c, pt("3/2", "1/2")), bisector(c, pt("1/2", "3/2")))
        square = (pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
        assert [R.vertices for R in clipped(notched, V)] == [square]
        assert [R.vertices for R in clipped(notched, V[::-1])] == [square]
        assert cell_components(notched, V) == [list(square)]


class TestProject:
    def test_basic(self):
        assert nearest_site(SQUARE_CORNERS, pt("9/10", 0)) == pt(1, 0)
        assert nearest_site(SQUARE_CORNERS, pt("9/10", "1/5")) == pt(1, 0)

    def test_prefers_near_site(self):
        S = SiteSet((pt(0, 0), pt(2, 0), pt(0, 2)))
        assert nearest_site(S, pt("9/10", 0)) == pt(0, 0)

    def test_tie_break_lexicographic(self):
        assert nearest_site(SQUARE_CORNERS, pt("1/2", "1/2")) == pt(0, 0)
        assert nearest_site(SQUARE_CORNERS, pt("1/2", 0)) == pt(0, 0)

    @given(points)
    @settings(max_examples=80)
    def test_projection_minimizes(self, x):
        y = nearest_site(SQUARE_CENTER, x)
        for c in SQUARE_CENTER:
            assert dist_sq(x, y) <= dist_sq(x, c)

    @given(points)
    @settings(max_examples=80)
    def test_point_lies_in_cell_of_projection(self, x):
        y = nearest_site(SQUARE_CENTER, x)
        for w in cell_walls(SQUARE_CENTER, y):
            assert level(w, x) <= 0


def reference_project(S, x):
    """project_ratios as a Fraction minimum: nearest site, then the
    smallest key."""
    return min(S.sites, key=lambda c: (dist_sq(x, c), c.key()))


narrow = st.fractions(min_value=-2, max_value=2, max_denominator=2)
wide = st.integers(1, 2**128).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).map(lambda n: F(n, d)))


@st.composite
def sites_and_point(draw, c):
    """A site set and a point that is free, a site, the midpoint of two
    sites, or elsewhere on their bisector (a distance tie)."""
    pts = draw(st.lists(st.builds(Point, c, c), min_size=3, max_size=9,
                        unique_by=Point.key))
    try:
        S = SiteSet(tuple(pts))
    except DegenerateHull:
        assume(False)
    a, b = draw(st.permutations(S.sites))[:2]
    mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
    kind = draw(st.sampled_from(("free", "site", "midpoint", "bisector")))
    if kind == "free":
        x = draw(st.builds(Point, c, c))
    elif kind == "site":
        x = a
    elif kind == "midpoint":
        x = mid
    else:
        k = draw(st.fractions(-3, 3, max_denominator=4))
        x = Point(mid.x - k * (b.y - a.y), mid.y + k * (b.x - a.x))
    return S, x


class TestProjectIntegerKernel:
    @given(st.one_of(sites_and_point(narrow), sites_and_point(wide)))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_formula(self, case):
        S, x = case
        assert nearest_site(S, x) == reference_project(S, x)

    def test_every_tie_goes_to_the_smallest_site(self):
        # the center of the square ties all four corners, whatever their order
        corners = [pt(1, 1), pt(0, 1), pt(1, 0), pt(0, 0)]
        for k in range(4):
            S = SiteSet(tuple(corners[k:] + corners[:k]))
            assert nearest_site(S, pt("1/2", "1/2")) == pt(0, 0)
            assert nearest_site(S, pt("1/2", 2)) == pt(0, 1)


class TestCellCache:
    def test_cells_are_built_once_per_site_set(self):
        # one tuple of walls per site, in S.sites order.  A corner's facets
        # are its two hull neighbours and the center; the center's wall cuts
        # the cell off before the opposite corner's.  They come in the
        # counter-clockwise order of their dual points, from the
        # lexicographically smallest vertex of the dual hull
        center = pt("1/2", "1/2")
        facets = {pt(0, 0): (pt(1, 0), center, pt(0, 1)),
                  pt(1, 0): (pt(0, 0), pt(1, 1), center),
                  pt(1, 1): (center, pt(1, 0), pt(0, 1)),
                  pt(0, 1): (pt(0, 0), center, pt(1, 1)),
                  center: (pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))}
        cells = SQUARE_CENTER.cells
        assert SQUARE_CENTER.cells is cells
        assert cells == tuple(tuple(bisector(c, d) for d in facets[c])
                              for c in SQUARE_CENTER.sites)


class TestCornerCellMonotonicity:
    def test_cell_within_corner_cell(self):
        # the cell under all sites sits inside the cell under corners only
        S = SQUARE_CENTER
        cor = SiteSet(corners(S), id="cor")
        box = Region.from_ring([pt(-9, -9), pt(9, -9), pt(9, 9), pt(-9, 9)])
        for c in corners(S):
            (fine,) = clipped(box, cell_walls(S, c))
            (coarse,) = clipped(box, cell_walls(cor, c))
            assert subset(fine, coarse)


class TestAssumptionReport:
    def test_square(self):
        rep = assumption_report([SQUARE_CORNERS])
        assert rep.max_hull_diameter_sq == 2
        assert rep.normal_count == 4
        assert set(rep.normals) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert rep.max_inner_cell_diameter_sq is None

    def test_center_adds_inner_diameter(self):
        rep = assumption_report([SQUARE_CENTER])
        assert rep.max_inner_cell_diameter_sq == 1

    def test_normals_union_over_members(self):
        tri = SiteSet((pt(0, 0), pt(2, 0), pt(0, 2)), id="tri")
        rep = assumption_report([SQUARE_CORNERS, tri])
        assert (1, 1) in rep.normals
        assert rep.normal_count == 5

    def test_as_dict_round_trip(self):
        d = assumption_report([SQUARE_CENTER]).as_dict()
        assert d["max_hull_diameter_sq"] == "2"
        assert d["max_inner_cell_diameter_sq"] == "1"
        assert d["normal_count"] == 4


class TestCoverage:
    @given(points)
    @settings(max_examples=60)
    def test_cells_tile_the_plane(self, x):
        # membership in the projected site's cell certifies the tiling
        y = nearest_site(SQUARE_CENTER, x)
        others = [c for c in SQUARE_CENTER if c != y]
        assert all(level(bisector(y, d), x) <= 0 for d in others)


def folded_reference(ring, S, c):
    """ring clipped into the cell of c by reference_clip over every one of
    the n - 1 bisectors, in site order, the components in vertex-key order."""
    comps = [ring]
    for d in S:
        if d != c:
            comps = [r for comp in comps
                     for r in reference_clip(comp, *bisector(c, d))]
    return sorted(comps, key=lambda r: [p.key() for p in r])


SSET3 = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
         (1, 2), (0, -1), (1, -2), (2, -3)]
# integer lattice sets are rich in cocircular sites, whose walls meet the
# cell at one vertex only; sset3 is one of them, shifted about the region
lattice_sites = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                         min_size=3, max_size=10, unique=True)
sset3_shifted = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda d: [(x + d[0], y + d[1]) for x, y in SSET3])
rational_sites = st.lists(st.tuples(narrow, narrow), min_size=3, max_size=8,
                          unique=True)


class TestFacetWalls:
    @given(st.one_of(lattice_sites, sset3_shifted, rational_sites),
           st.one_of(star_rings(), star_rings(wide_radii)))
    @settings(max_examples=150, deadline=None)
    def test_facet_walls_clip_like_every_bisector(self, coords, ring):
        try:
            S = SiteSet(tuple(pt(x, y) for x, y in coords))
        except DegenerateHull:
            assume(False)
        R = Region.from_ring(ring)
        for c in S:
            want = outcome(folded_reference, ring, S, c)
            assert outcome(cell_components, R, cell_walls(S, c)) == want

    def test_pruned_walls_leave_shipped_cells_unchanged(self):
        scenes = Path(__file__).resolve().parent.parent / "scenes"
        members = [S for p in sorted(scenes.glob("*.json"))
                   for coll in load_scene(str(p)).collections.values()
                   for S in coll.members]
        assert len(members) == 9
        for S in members:
            for c in S:
                every = tuple(bisector(c, d) for d in S if d != c)
                facets = cell_walls(S, c)
                assert set(facets) <= set(every)
                if c in S.inners:
                    got = materialize_cell(S, c)
                    for w in every:
                        levels = [level(w, v) for v in got.vertices]
                        # every wall holds the whole cell, so dropping one
                        # changes nothing; a facet carries one of its edges
                        assert max(levels) <= 0
                        assert (levels.count(0) == 2) == (w in facets)
                    xmin, ymin, xmax, ymax = bbox(got.vertices)
                else:
                    xmin, ymin, xmax, ymax = bbox(S.hull.vertices)
                pad = S.hull.diameter_sq
                box = Region.from_ring((pt(xmin - pad, ymin - pad), pt(xmax + pad, ymin - pad),
                                        pt(xmax + pad, ymax + pad), pt(xmin - pad, ymax + pad)))
                (want,) = [R.vertices for R in clipped(box, every)]
                assert [R.vertices for R in clipped(box, facets)] == [want]
                if c in S.inners:
                    assert want == got.vertices


def box_clip_cell(S, c):
    """An inner site's cell clipped from a box around ch S: the box is
    padded by 4 times a rational upper bound of sqrt(diam ch S) first, and
    the pad doubles while the clipped cell still touches the box."""
    d = S.hull.diameter_sq
    pad = 4 * F(isqrt(d.numerator) + 1, max(isqrt(d.denominator), 1))
    xmin, ymin, xmax, ymax = bbox(S.hull.vertices)
    while True:
        lo_x, lo_y, hi_x, hi_y = xmin - pad, ymin - pad, xmax + pad, ymax + pad
        box = Region.from_ring((Point(lo_x, lo_y), Point(hi_x, lo_y),
                                Point(hi_x, hi_y), Point(lo_x, hi_y)))
        (got,) = clipped(box, cell_walls(S, c))
        gx0, gy0, gx1, gy1 = bbox(got.vertices)
        if lo_x < gx0 and lo_y < gy0 and gx1 < hi_x and gy1 < hi_y:
            return got
        pad *= 2


class TestCellsFromWalls:
    @given(st.one_of(lattice_sites, sset3_shifted, rational_sites))
    @settings(max_examples=150, deadline=None)
    def test_bounded_cells_match_the_box_clip(self, coords):
        try:
            S = SiteSet(tuple(pt(x, y) for x, y in coords))
        except DegenerateHull:
            assume(False)
        for c in S.inners:
            assert materialize_cell(S, c) == box_clip_cell(S, c)

    @given(st.one_of(lattice_sites, sset3_shifted, rational_sites))
    @settings(max_examples=150, deadline=None)
    def test_bisector_is_the_reduced_fraction_bisector(self, coords):
        sites = [pt(x, y) for x, y in coords]
        for c in sites:
            for d in sites:
                if d != c:
                    e = d - c
                    assert bisector(c, d) == wall(2 * e.x, 2 * e.y,
                                                  d.norm_sq() - c.norm_sq())


def forms(rings) -> list[tuple]:
    """Each ring in canonical form, which must only rotate it (rotated),
    in sorted order: equal lists hold the same rings up to rotation."""
    out = []
    for m, xs, ys in rings:
        order = rotated((m, xs, ys))
        out.append((m, tuple(xs[i] for i in order), tuple(ys[i] for i in order)))
    return sorted(out)


def check_pieces(S: SiteSet, R: Region) -> dict:
    """cell_pieces of R against the reference clip of R by each cell's walls
    (clip_components), cell by cell: the same rings up to rotation where
    the reference returns only simple rings; otherwise the same area, in
    the reference's rings or in simple ones.  Every ring is over the lcm of
    its reduced denominators, and the pieces of all cells add up to R.
    Returns the pieces by site."""
    X = R._scaled
    got = dict(cell_pieces(S, X))
    assert list(got) == [c for c in S.sites if c in got]
    total = 0
    for c, walls in zip(S.sites, S.cells):
        pieces = got.get(c, [])
        assert all(math.gcd(m, *xs, *ys) == 1 for m, xs, ys in pieces)
        area = sum(ring_area2(p) for p in pieces)
        total += area
        want = outcome(clip_components, X, walls)
        if want is not MultiComponent and all(is_simple_ring(f) for f in forms(want)):
            assert forms(pieces) == forms(want)
            continue
        if want is not MultiComponent:
            assert area == sum(ring_area2(w) for w in want)
            if forms(pieces) == forms(want):
                continue
        assert all(is_simple_ring(f) for f in forms(pieces))
    assert total == R.area2
    return got


quarter = st.fractions(min_value=-4, max_value=4, max_denominator=4)
small_sites = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       min_size=3, max_size=7, unique=True)


@st.composite
def polygons(draw):
    """A simple ring of 3 to 9 vertices in halves and quarters, ordered
    around their centroid: star-shaped there, not around the origin, so a
    cell may hold several components of it."""
    pts = draw(st.lists(st.builds(Point, quarter, quarter), min_size=3, max_size=9,
                        unique_by=Point.key))
    try:
        return Region.from_ring(_angle_sorted(pts))
    except GeometryError:
        assume(False)


def site_set(coords) -> SiteSet:
    try:
        return SiteSet(tuple(pt(x, y) for x, y in coords))
    except DegenerateHull:
        assume(False)


SSET3_SITES = SiteSet(tuple(pt(x, y) for x, y in SSET3), id="sset3")
BRIDGE_SITES_COORDS = [(-2, 0), (-1, -2), (1, -2), (2, -2)]
BRIDGE_SITES = SiteSet(tuple(pt(x, y) for x, y in BRIDGE_SITES_COORDS))
# an edge of BRIDGE along the wall x = 0 between (-1, -2) and (1, -2), X's
# interior on the side of (-1, -2), joins two lobes in the cell of (1, -2)
BRIDGE = [(-2, "-5/2"), (-1, -4), (0, -5), (1, -4), (0, "-5/2"), (0, "-3/2"), ("3/2", 1)]
PINCH_SITES = SiteSet(tuple(pt(x, y) for x, y in ((-1, 1), (0, -2), (0, -1), (0, 1))))
# the piece of (-1, 1) touches itself at (-1/2, 0)
PINCH = [(-3, "-1/2"), ("5/2", -3), (2, "-1/2"), (-1, 1), ("-1/2", 0), (-3, 0)]


def region(*coords) -> Region:
    return Region.from_ring([pt(x, y) for x, y in coords])


# a square with a bottom notch, whose legs lie in the cell of (3/2, 1/2)
NOTCH_SITES = [("3/2", "1/2"), ("3/2", "5/2"), (100, 1)]
NOTCHED = region((0, 0), (1, 0), (1, 2), (2, 2), (2, 0), (3, 0), (3, 3), (0, 3))._scaled


# ---------------------------------------------------------------------------
# the reference walk

# A vertex of the reference walk: (X, Y, D, on), the point (X / D, Y / D)
# with D > 0, on whether it lies on a wall line (_cleaned)
_OnVertex = tuple[int, int, int, bool]


def reference_split_ring(S: SiteSet, X: Scaled) -> list[list[Scaled]]:
    """The walk of errdiff.voronoi.split_ring as it was before its vertices
    carried their provenance: each vertex carries whether it lies on a wall
    line instead, reference_close finds each chain end's wall by testing
    the cell's walls, and _cleaned finishes every piece.

    The components of X ∩ V(c) for every site c, in S.sites order, from
    one walk of the boundary of X, a simple counter-clockwise ring (m, xs,
    ys), through the diagram.

    Each boundary point goes to the cell holding it moved a little along
    its edge and less to the left (_nearest): an edge on a wall goes to the
    cell on X's side.  A wall's level A x + B y - C m is affine along an
    edge u -> v, so the edge leaves its cell where the first level f turns
    positive, at (f(v) u - f(u) v) / (f(v) - f(u)), into the site across
    that wall, or, at a corner or along a wall, into the cell _nearest
    names.  Each cell's chains, the maximal runs of the boundary in it, are
    closed along its walls (reference_close).  A cell no chain enters is a
    piece whole exactly when it is bounded and its site lies strictly
    inside X.  A ring in one cell comes back as it was given.
    """
    m, xs, ys = X
    n = len(xs)
    cells, nbrs, psi = S.cells, S._neighbours, S._psi
    first = c = _nearest(psi, xs[0], ys[0], m, xs[1] - xs[0], ys[1] - ys[0])
    walls = cells[c]
    fv = [A * xs[0] + B * ys[0] - C * m for A, B, C in walls]
    cur: list[_OnVertex] = [(xs[0], ys[0], m, 0 in fv)]
    chains: list[tuple[int, list[_OnVertex]]] = []
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
            p = (*_reduced(b * ux - a * vx, b * uy - a * vy, (b - a) * m), True)
            cur.append(p)
            chains.append((c, cur))
            cur = [p]
            if tie or any(a == 0 == b for a, b in zip(fu, fv)):
                c = _nearest(psi, p[0], p[1], p[2], vx - ux, vy - uy)
            else:
                c = nbrs[c][k]
            walls = cells[c]
            fu = [A * ux + B * uy - C * m for A, B, C in walls]
            fv = [A * vx + B * vy - C * m for A, B, C in walls]
        on = 0 in fv
        cur.append((vx, vy, m, on))
        if on:
            # v lies on the boundary of the cell: the next edge picks its own
            k = j + 1 if j + 1 < n else 0
            nxt = first if j == 0 else _nearest(psi, vx, vy, m, xs[k] - vx, ys[k] - vy)
            if nxt != c:
                chains.append((c, cur))
                cur = [(vx, vy, m, True)]
                c = nxt
                walls = cells[c]
                fv = [A * vx + B * vy - C * m for A, B, C in walls]
    pieces: list[list[Scaled]] = [[] for _ in cells]
    if not chains:
        pieces[c] = [X]
        return pieces
    # back in the cell it started in, the walk's last chain runs on into its first
    chains[0] = (c, cur + chains[0][1][1:])
    by_cell: dict[int, list[list[_OnVertex]]] = {}
    for c, chain in chains:
        by_cell.setdefault(c, []).append(chain)
    for c, found in by_cell.items():
        pieces[c] = reference_close(cells[c], S._corners[c], found)
    M, entries = psi
    mxs, mys = [x * M for x in xs], [y * M for y in ys]
    for c, ((_, x, y), corners) in enumerate(zip(entries, S._corners)):
        if c not in by_cell and None not in corners and _ring_locate(mxs, mys, x * m, y * m) > 0:
            pieces[c] = [_corner_ring(corners)]
    return pieces


def reference_close(walls: Sequence[Wall], corners: Sequence[Triple | None],
                    chains: list[list[_OnVertex]]) -> list[Scaled]:
    """One cell's components: each chain joined from its end, counter-
    clockwise along the cell's boundary, to the next chain start, through
    the corners passed (booleans._cleaned drops repeats).

    A boundary point on the wall (A, B, C) is at (r, A y - B x over d), r
    counting the walls from the one after an unbounded cell's gap; A y - B x
    grows counter-clockwise.  The ends and starts are sorted over the lcm
    of their denominators, each end pairs with the next start, cyclically
    around a bounded cell, and MultiComponent says a pair is not so (a ring
    that is not simple and counter-clockwise).
    """
    K, N = len(walls), len(chains)
    gap = corners.index(None) if None in corners else -1

    def position(p: _OnVertex) -> tuple[int, int, int]:
        X, Y, D, _ = p
        k = next(k for k, (A, B, C) in enumerate(walls) if A * X + B * Y == C * D)
        A, B, _ = walls[k]
        return (k - gap - 1) % K, A * Y - B * X, D

    # chain i ends at keys[i] and starts at keys[N + i]
    pos = [position(chain[t]) for t in (-1, 0) for chain in chains]
    L = lcm(*[D for _, _, D in pos])
    keys = [(r, a * (L // D)) for r, a, D in pos]
    events = sorted((key, i) for i, key in enumerate(keys))
    if gap < 0 and events[0][1] >= N:
        events = events[1:] + events[:1]
    succ = [0] * N
    for (_, e), (_, s) in zip(events[0::2], events[1::2]):
        if e >= N or s < N:
            raise MultiComponent("ring meets a cell boundary degenerately")
        succ[e] = s - N
    rings = []
    seen = [False] * N
    for i in range(N):
        pts: list[_OnVertex] = []
        while not seen[i]:
            seen[i] = True
            pts += chains[i]
            j = succ[i]
            ke, ks = keys[i], keys[N + j]
            ranks = range(ke[0], ks[0]) if ke <= ks else [*range(ke[0], K), *range(ks[0])]
            pts += [(*corners[(r + gap + 1) % K], True) for r in ranks]
            i = j
        piece = _cleaned(tuple(zip(*pts))) if pts else None
        if piece is not None:
            rings.append(piece)
    return rings


class TestSplitRing:
    @given(st.one_of(small_sites, lattice_sites, sset3_shifted, rational_sites),
           st.one_of(polygons(), star_rings().map(Region.from_ring),
                     star_rings(wide_radii).map(Region.from_ring)))
    @settings(max_examples=200, deadline=None)
    def test_pieces_match_the_reference_clip(self, coords, R):
        check_pieces(site_set(coords), R)

    @given(st.one_of(small_sites, lattice_sites, sset3_shifted, rational_sites),
           st.one_of(polygons(), star_rings().map(Region.from_ring),
                     star_rings(wide_radii).map(Region.from_ring)).map(lambda R: R._scaled),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    # a ring vertex on a wall
    @example(SSET3, region(("-1/4", "-1/4"), ("1/2", 0), ("-1/4", "1/4"))._scaled, False)
    # an edge along a wall
    @example(SSET3, region(("1/2", "-1/4"), (2, "-1/4"), (2, "1/4"), ("1/2", "1/4"))._scaled, False)
    # a crossing at the corner (1/2, 1/2), where two walls tie
    @example(SSET3, region(("1/4", "1/4"), ("3/4", "3/4"), ("-1/4", "3/4"))._scaled, False)
    # cells holding two chains, clean and along a wall
    @example(NOTCH_SITES, NOTCHED, False)
    @example(BRIDGE_SITES_COORDS, region(*BRIDGE)._scaled, False)
    # a ring in one cell, returned as given
    @example(SSET3, region(("7/8", "-1/4"), ("5/4", "-1/4"), (1, "1/4"))._scaled, False)
    # a clockwise ring across the wall x = 1/2: in the bounded cell of
    # (1, 0) its one chain closes all the way around; in the unbounded cell
    # of (0, 0) it raises MultiComponent
    @example(SSET3, region(("1/4", "-1/4"), ("3/4", "-1/4"), ("3/4", "1/4"))._scaled, True)
    def test_walk_matches_the_reference_walk(self, coords, X, clockwise):
        """split_ring returns the reference walk's pieces field for field:
        the same m, xs and ys and the same start vertex, or both raise, also
        on a clockwise ring, which raises where a chain closes across an
        unbounded cell's gap."""
        S = site_set(coords)
        if clockwise:
            X = (X[0], X[1][::-1], X[2][::-1])
        assert outcome(split_ring, S, X) == outcome(reference_split_ring, S, X)

    @pytest.mark.parametrize("ring", [
        [("1/4", "1/4"), ("3/4", "3/4"), ("-1/4", "3/4")],
        [("3/4", "3/4"), ("1/4", "1/4"), ("3/4", "1/4")],
        [(0, "1/4"), (1, "3/4"), (0, 1)],
    ])
    def test_edge_through_a_degree_four_vertex(self, ring):
        # (0, 0), (1, 0), (1, 1) and (0, 1) meet at (1/2, 1/2); an edge
        # through it passes from the cell of (0, 0) into that of (1, 1), or
        # back, and the cells of (1, 0) and (0, 1) keep what lies in them
        got = check_pieces(SSET3_SITES, region(*ring))
        assert {pt(0, 0), pt(1, 1)} <= set(got)

    @pytest.mark.parametrize("ring, sites", [
        # the left edge on the wall x = 1/2, X's interior on the side of
        # (1, 0), and then of (0, 0)
        ([("1/2", "-1/4"), (2, "-1/4"), (2, "1/4"), ("1/2", "1/4")], [(1, 0), (2, 0)]),
        ([("-1/2", "-1/4"), ("1/2", "-1/4"), ("1/2", "1/4"), ("-1/2", "1/4")], [(0, 0)]),
        # the bottom edge on the wall y = -1 below (1, 0), the right edge on
        # the wall x = 3/2 before (2, 0)
        ([(1, -1), ("3/2", -1), ("3/2", "-1/2"), (1, "-1/2")], [(1, 0)]),
    ])
    def test_edge_on_a_wall(self, ring, sites):
        got = check_pieces(SSET3_SITES, region(*ring))
        assert list(got) == [pt(x, y) for x, y in sites]

    def test_vertex_on_a_wall_and_at_a_voronoi_vertex(self):
        # (1/2, 0) lies on the wall between (0, 0) and (1, 0): the ring stays
        # in the closed cell of (0, 0) and comes back as it was given
        R = region(("-1/4", "-1/4"), ("1/2", 0), ("-1/4", "1/4"))
        ((c, (piece,)),) = cell_pieces(SSET3_SITES, R._scaled)
        assert c == pt(0, 0) and piece[1] is R.xs
        # (1/2, 1/2), where four cells meet, is a vertex of X
        for ring in ([("1/2", "1/2"), ("1/4", 1), ("-1/4", 0)],
                     [(0, "1/4"), ("1/2", "1/2"), (1, "1/4"), ("1/2", 1)]):
            check_pieces(SSET3_SITES, region(*ring))

    def test_ring_inside_one_cell(self):
        R = region(("7/8", "-1/4"), ("5/4", "-1/4"), (1, "1/4"))
        X = R._scaled
        pieces = split_ring(SSET3_SITES, X)
        assert [len(p) for p in pieces] == [0, 1] + [0] * 8
        assert pieces[1][0] is X

    def test_inner_cell_inside_the_ring(self):
        # the cell of (1, 0) lies in [1/2, 3/2] x [-1, 1/2], which no chain
        # enters: it is a piece whole
        R = region((0, -1), (2, -1), (2, 1), (0, 1))
        got = check_pieces(SSET3_SITES, R)
        (cell,) = got[pt(1, 0)]
        assert forms([cell]) == forms([materialize_cell(SSET3_SITES, pt(1, 0))._scaled])

    # the bridge edge goes to the cell on X's side whatever the site order
    @pytest.mark.parametrize("S", [BRIDGE_SITES, SiteSet(BRIDGE_SITES.sites[::-1])])
    def test_a_bridge_along_a_wall_leaves_two_lobes(self, S):
        # the reference joins the two lobes by the bridge, a ring that is
        # not simple; the walk returns them apart, with the same area
        R = region(*BRIDGE)
        got = check_pieces(S, R)
        (want,) = clip_components(R._scaled, S.cells[S.sites.index(pt(1, -2))])
        assert not is_simple_ring(forms([want])[0])
        assert forms(got[pt(1, -2)]) == forms([region((0, -5), (1, -4), (0, "-5/2"))._scaled,
                                               region((0, "-3/2"), ("3/2", 1), (0, "-1/2"))._scaled])
        # so p's general route sums the hull with each lobe: the image no
        # longer reaches (-3, 0)
        image = p_step(S, R)
        assert image.area2 == F(6187, 78)
        assert image.locate(pt(-3, 0)) == -1

    def test_a_piece_that_touches_itself_stays_whole(self):
        R = region(*PINCH)
        got = check_pieces(PINCH_SITES, R)
        ((m, xs, ys),) = got[pt(-1, 1)]
        assert [(F(x, m), F(y, m)) for x, y in zip(xs, ys)].count((F(-1, 2), 0)) == 2
        # two rotations of it have one canonical form
        n = len(xs)
        for k in range(n):
            assert ([xs[(i + k) % n] for i in _canonical_order(xs[k:] + xs[:k], ys[k:] + ys[:k])]
                    == [xs[i] for i in _canonical_order(xs, ys)])
        # and g, p and P return a set on it
        SS = Collection((PINCH_SITES,))
        assert apply_operator("g", SS, R.with_reference(ORIGIN)).area2 == F(2257, 70)
        assert apply_operator("p", SS, R).area2 == F(21877, 420)
        assert apply_operator("P", SS, R).area2 == F(1103, 20)


class TestCellCaches:
    def test_loading_a_scene_builds_no_cell(self):
        scenes = Path(__file__).resolve().parent.parent / "scenes"
        for p in sorted(scenes.glob("*.json")):
            for coll in load_scene(str(p)).collections.values():
                for S in coll.members:
                    assert not {"cells", "_neighbours", "_corners", "_psi"} & set(vars(S))

    @given(st.one_of(lattice_sites, sset3_shifted, rational_sites))
    @settings(max_examples=100, deadline=None)
    def test_corners_and_neighbours(self, coords):
        """Each corner lies on its two walls and inside every other; a
        bounded cell has no gap and an unbounded one exactly one; the site
        across each wall is the one whose bisector it is, and its cell has
        the same wall reversed."""
        S = site_set(coords)
        for i, (c, walls, corners) in enumerate(zip(S.sites, S.cells, S._corners)):
            assert [bisector(c, S.sites[j]) for j in S._neighbours[i]] == list(walls)
            for j, (A, B, C) in zip(S._neighbours[i], walls):
                assert S.cells[j][S._neighbours[j].index(i)] == (-A, -B, -C)
            assert corners.count(None) == (0 if c in S.inners else 1)
            for k, corner in enumerate(corners):
                if corner is None:
                    continue
                X, Y, D = corner
                levels = [A * X + B * Y - C * D for A, B, C in walls]
                assert levels[k] == levels[(k + 1) % len(walls)] == 0
                assert max(levels) == 0


class TestCloseRoutes:
    def test_route_tally_on_sset3_solves(self, monkeypatch):
        """How sset3's g, G, p and P solves close their cell pieces: nearly
        every cell holds one chain, closed through its corners from the end
        wall to the start wall, and only pieces where the walk met a zero
        level take the drop of repeated and collinear vertices, of which
        a few lose one."""
        tally = dict.fromkeys(("closes", "several chains", "marked", "lost a vertex"), 0)
        close, ring = errdiff.voronoi._close, errdiff.voronoi._ring

        def counted_close(walls, corners, chains):
            tally["closes"] += 1
            tally["several chains"] += len(chains) > 1
            return close(walls, corners, chains)

        def counted_ring(pts, marked):
            got = ring(pts, marked)
            tally["marked"] += marked
            tally["lost a vertex"] += got is None or len(got[1]) < len(pts)
            return got

        monkeypatch.setattr(errdiff.voronoi, "_close", counted_close)
        monkeypatch.setattr(errdiff.voronoi, "_ring", counted_ring)
        scene = Path(__file__).resolve().parent.parent / "scenes" / "sset3.json"
        ((name, coll),) = load_scene(str(scene)).collections.items()
        for op in "gGpP":
            iterate(op, coll, _seed_for(coll, name, "gset" if op in "gG" else "fset"))
        assert tally == {"closes": 704, "several chains": 4, "marked": 12, "lost a vertex": 4}
