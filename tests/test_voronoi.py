"""Site sets, bisector cells, corners and inners, projection, boundedness."""
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from errdiff.booleans import subset
from errdiff.operators import _star_cycles, cell_pieces
from errdiff.scene import load_scene
from errdiff.geometry import (
    DegenerateHull,
    MultiComponent,
    Point,
    Region,
    dist_sq,
    point_of,
    pt,
    ratios,
)
from errdiff.voronoi import (
    AssumptionReport,
    CoincidentSites,
    SiteSet,
    UnboundedCell,
    assumption_report,
    bisector,
    hull_edge_normals,
    inner_cell_diameter_sq,
    materialize_cell,
    project_ratios,
)
from test_booleans import bbox, clip, outcome, reference_clip, star_rings, wide_radii
from test_geometry import clipped, level, wall


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
