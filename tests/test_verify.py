"""Structural checks: invariance, star-convexity, coverage, reachability."""
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import errdiff.verify
from errdiff.booleans import subset
from errdiff.dynamics import Triangle, TriangleFamily, sample_hull_ratios, triangle_bound
from errdiff.geometry import (
    GeometryError,
    ORIGIN,
    Point,
    PointSeed,
    Region,
    add_ratios,
    point_of,
    pt,
    ratios,
    sub_ratios,
    vertex_ratios,
)
from errdiff.operators import (
    Collection,
    apply_operator,
    iterate,
    shared_site,
)
from errdiff.scene import load_scene
from errdiff.verify import (
    VerificationReport,
    _escapes,
    brute_force_reachable,
    contains_union_of_hulls,
    coverage_ratio,
    covers_translated_inner_cells,
    is_invariant_g,
    is_invariant_p,
    is_star_convex_origin,
    reachable_within,
    triangle_family_check,
)
from errdiff.voronoi import SiteSet
from test_booleans import star_rings


def sites(*coords, id="S"):
    return SiteSet(tuple(pt(x, y) for x, y in coords), id=id)


def box(r, center=(0, 0)):
    cx, cy = center
    return Region.from_ring((pt(cx - r, cy - r), pt(cx + r, cy - r),
                             pt(cx + r, cy + r), pt(cx - r, cy + r)))


SQUARE = sites((0, 0), (1, 0), (1, 1), (0, 1), id="unit-square")
SQUARE5 = sites((0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2)), id="square5")
DIAMOND = sites((2, 0), (0, 2), (-2, 0), (0, -2), id="diamond")


class TestReportShape:
    def test_passed_mirrors_witnesses(self):
        assert VerificationReport("c").passed
        assert not VerificationReport("c", (ORIGIN,)).passed

    def test_reports_are_deterministic(self):
        a = is_invariant_g(SQUARE, box(F(1, 4)))
        b = is_invariant_g(SQUARE, box(F(1, 4)))
        assert a == b


class TestInvariantG:
    def test_minimal_box_is_invariant(self):
        assert is_invariant_g(SQUARE, box(F(1, 2))).passed

    def test_small_box_fails_with_witness(self):
        rep = is_invariant_g(SQUARE, box(F(1, 4)))
        assert not rep.passed
        w = rep.witnesses[0]
        assert max(abs(w.x), abs(w.y)) > F(1, 4)

    def test_larger_invariant_sets_exist(self):
        assert is_invariant_g(SQUARE, box(1)).passed

    def test_collection_requires_every_member(self):
        rep = is_invariant_g(Collection((SQUARE, DIAMOND)), box(F(1, 2)))
        assert not rep.passed

    def test_converged_run_verifies(self):
        res = iterate("g", Collection((DIAMOND,)), PointSeed(ORIGIN))
        assert res.converged
        assert is_invariant_g(DIAMOND, res.final).passed
        assert is_star_convex_origin(res.final).passed


SCENES = Path(__file__).resolve().parent.parent / "scenes"


def shipped(scene: str) -> Collection:
    (coll,) = load_scene(str(SCENES / f"{scene}.json")).collections.values()
    return coll


def seed_for(op: str, coll: Collection) -> PointSeed:
    return PointSeed(ORIGIN if op in ("g", "G") else shared_site(coll))


@pytest.fixture
def walks(monkeypatch) -> list:
    """The (inner, outer) pair of every subset_witness walk that the
    invariance checks make."""
    calls = []
    real = errdiff.verify.subset_witness

    def spy(inner, outer):
        calls.append((inner, outer))
        return real(inner, outer)
    monkeypatch.setattr(errdiff.verify, "subset_witness", spy)
    return calls


CHECKS = {"g": is_invariant_g, "p": is_invariant_p}


class TestEqualImage:
    """An image equal to its set passes with no containment walk; every
    other image is walked, so no verdict, witness or note changes."""

    @given(star_rings(), st.sampled_from(sorted(CHECKS)))
    @settings(max_examples=40, deadline=None)
    def test_every_image_holds_its_set(self, ring, op):
        # a point z of D lies in V(c) for its nearest site c, so
        # z = (z - c) + c lies in p(D) = ch S + U(D); and z + c lies in V(c)
        # for a hull vertex c whose normal cone holds z, so z lies in
        # g(Q) = U(ch S + Q).  So op(Q) ⊆ Q only where op(Q) = Q: every
        # passing verdict is an equal image, and a walk only finds witnesses
        Q = Region.from_ring(ring)
        try:
            image = apply_operator(op, Collection((SQUARE5, DIAMOND)), Q)
        except GeometryError:
            assume(False)
        assert subset(Q, image)

    @pytest.mark.parametrize("scene, op", [("sset3", "g"), ("sset3", "p"), ("ssprime", "g")])
    def test_a_fixed_point_passes_with_no_walk(self, scene, op, walks):
        coll = shipped(scene)
        F_ = iterate(op, coll, seed_for(op, coll)).final
        rep = CHECKS[op](coll, F_)
        assert rep.passed and rep.notes == f"image has {len(F_)} vertices"
        assert walks == []

    def test_an_image_inside_its_set_is_walked(self, monkeypatch, walks):
        # no image of g or p lies strictly inside its set (above), so a
        # stand-in operator shows that such an image still takes the walk,
        # and passes, and that a larger one fails on it
        Q, inner, outer = box(1), box(F(1, 2)), box(2)
        monkeypatch.setattr(errdiff.verify, "apply_operator", lambda op, SS, R: inner)
        rep = is_invariant_g(SQUARE, Q)
        assert rep.passed and rep.notes == "image has 4 vertices"
        assert walks == [(inner, Q)]
        monkeypatch.setattr(errdiff.verify, "apply_operator", lambda op, SS, R: outer)
        rep = is_invariant_p(SQUARE, Q)
        assert not rep.passed and walks[1:] == [(outer, Q)]

    @pytest.mark.parametrize("scene, op, n, witness, vertices", [
        ("sset3", "g", 2, ("-5/4", "-1/2"), 14),
        ("sset3", "p", 2, ("-5/4", "-5/4"), 13),
        ("ssprime", "g", 3, ("-43/25", "-47/50"), 14),
        ("ssprime", "p", 2, ("-11/4", "-1"), 18),
    ])
    def test_a_chain_iterate_fails_with_its_witness(self, scene, op, n, witness, vertices,
                                                    walks):
        # the witnesses and notes the checks gave before the equality test
        coll = shipped(scene)
        Q = seed_for(op, coll)
        for _ in range(n):
            Q = apply_operator(op, coll, Q)
        rep = CHECKS[op](coll, Q)
        assert rep.witnesses == (pt(*witness),)
        assert rep.notes == f"image has {vertices} vertices"
        assert len(walks) == 1


class TestInvariantP:
    def test_hull_is_not_invariant_for_the_square(self):
        # z = (3/4, 3/4) quantizes to (1,1); adding x = (0,0) escapes the
        # hull, so the hull of this site set cannot absorb one round
        D = Region.from_ring((pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)))
        rep = is_invariant_p(SQUARE, D)
        assert not rep.passed
        assert rep.witnesses

    def test_half_box_fails(self):
        D = Region.from_ring((pt(0, 0), pt(F(1, 2), 0),
                              pt(F(1, 2), F(1, 2)), pt(0, F(1, 2))))
        assert not is_invariant_p(SQUARE, D).passed

    def test_converged_p_run_verifies(self):
        res = iterate("p", Collection((SQUARE,)), PointSeed(pt(0, 0)))
        assert res.converged
        rep = is_invariant_p(SQUARE, res.final)
        assert rep.passed
        assert contains_union_of_hulls(SQUARE, res.final).passed


class TestStarConvex:
    def test_box_passes(self):
        assert is_star_convex_origin(box(F(1, 2))).passed

    def test_l_shape_with_origin_on_boundary_passes(self):
        L = Region.from_ring((pt(0, 0), pt(2, 0), pt(2, 1),
                              pt(1, 1), pt(1, 2), pt(0, 2)))
        assert is_star_convex_origin(L).passed

    def test_translated_l_shape_fails(self):
        L = Region.from_ring((pt(-3, -3), pt(-1, -3), pt(-1, -2),
                              pt(-2, -2), pt(-2, -1), pt(-3, -1)))
        rep = is_star_convex_origin(L)
        assert not rep.passed
        assert rep.witnesses

    def test_notch_around_the_origin_names_the_edges_it_hides(self):
        # the origin lies inside the U, but right of the notch's inner walls
        # and of the bottom edge between them
        U = Region.from_ring((pt(-2, -2), pt(2, -2), pt(2, 2), pt(1, 2),
                              pt(1, -1), pt(-1, -1), pt(-1, 2), pt(-2, 2)))
        rep = is_star_convex_origin(U)
        assert rep == VerificationReport(
            "is_star_convex_origin",
            (pt(1, F(1, 2)), pt(0, -1), pt(-1, F(1, 2))),
            "origin falls outside the edge halfplanes at these midpoints")

    def test_edge_on_a_line_through_the_origin_is_no_witness(self):
        # the origin is right of the bottom edge and of the left edge; the
        # edge (3, 3) -> (2, 2) lies on y = x, so the origin is on its line
        T = Region.from_ring((pt(F(1, 2), F(1, 3)), pt(3, F(1, 3)), pt(3, 3),
                              pt(2, 2), pt(F(1, 2), 2)))
        rep = is_star_convex_origin(T)
        assert rep == VerificationReport(
            "is_star_convex_origin",
            (pt(F(7, 4), F(1, 3)), pt(F(1, 2), F(7, 6))),
            "origin falls outside the edge halfplanes at these midpoints")


class TestCellCoverage:
    def test_center_cell_inside_minimal_box(self):
        assert covers_translated_inner_cells(SQUARE5, box(F(1, 2))).passed

    def test_small_box_misses_the_cell(self):
        rep = covers_translated_inner_cells(SQUARE5, box(F(1, 4)))
        assert not rep.passed

    def test_no_inner_sites_is_vacuous(self):
        rep = covers_translated_inner_cells(SQUARE, box(F(1, 100)))
        assert rep.passed
        assert "0 bounded cells" in rep.notes

    def test_computed_minimal_set_covers(self):
        res = iterate("g", Collection((SQUARE5,)), PointSeed(ORIGIN))
        assert res.converged and res.rounding_free
        assert covers_translated_inner_cells(SQUARE5, res.final).passed


class TestUnionOfHulls:
    def test_single_member_hull(self):
        D = Region.from_ring(SQUARE.hull.vertices)
        assert contains_union_of_hulls(SQUARE, D).passed

    def test_missing_member_reported(self):
        D = Region.from_ring(SQUARE.hull.vertices)
        rep = contains_union_of_hulls(Collection((SQUARE, DIAMOND)), D)
        assert not rep.passed
        assert rep.witnesses

    def test_bigger_domain_absorbs_both(self):
        D = box(2)
        assert contains_union_of_hulls(Collection((SQUARE, DIAMOND)), D).passed


def corners(tri):
    return [vertex_ratios(tri.ring, i) for i in range(len(tri.ring[1]))]


def sampled_family_escapes(h_max, t, samples, seed, candidate=None):
    """The sampled check that verify ran before the exact one, kept as a
    reference: fixed probes at the corners, then samples random triples
    (h, z, x) with z in the candidate and x in T(h); every round that
    leaves the candidate, and every sampled envelope point outside it, is
    an escape."""
    fam = TriangleFamily(h_max, t)
    envelope = fam.envelope
    target = candidate if candidate is not None else envelope
    rng = random.Random(seed)
    escapes = []

    def push(q):
        if not target.holds(q):
            escapes.append(point_of(q))

    def after_round(z, tri, x):
        return add_ratios(sub_ratios(z, tri.nearest(z)), x)

    for w in corners(envelope):
        push(w)
    for z in (v for v in corners(target) if envelope.holds(v)):
        for h in (envelope.h, envelope.h / 2):
            tri = Triangle(h, fam.t)
            for x in corners(tri):
                push(after_round(z, tri, x))
    for _ in range(samples):
        tri = fam.draw(rng)
        z = sample_hull_ratios(target, rng)
        if not target.holds(z):
            z = target.nearest(z)
        push(after_round(z, tri, sample_hull_ratios(tri, rng)))
        push(sample_hull_ratios(envelope, rng))
    return escapes


def rederived(escape, t):
    """The round of an escape (F, z, h, x), replayed through Triangle.nearest."""
    _, z, h, x = escape
    tri = Triangle(h, t)
    return point_of(add_ratios(sub_ratios(ratios(z), tri.nearest(ratios(z))), ratios(x)))


heights = st.fractions(0, 3, max_denominator=12)
slopes = st.fractions(F(1, 12), 4, max_denominator=12)


class TestTriangleFamily:
    def test_envelope_is_invariant_with_equality(self):
        rep = triangle_family_check(1, 1)
        assert rep == VerificationReport(
            "triangle_family_check", (),
            "exact: 24 vertices of the 7 normal-fan pieces of T(h)")
        # tight on the top and on a side: a round through T(h) from the
        # point (2h, 2h) with x = (h, h) returns to it, ...
        for h in (F(1, 2), F(1, 4)):
            z, x = pt(2 * h, 2 * h), pt(h, h)
            assert rederived((None, z, h, x), 1) == z
        # ... and a slope or height one thousandth smaller fails
        for smaller in (Triangle(1, F(999, 1000)), Triangle(F(999, 1000), 1)):
            assert not triangle_family_check(1, 1, candidate=smaller).passed

    def test_wider_wedges_leak_below_the_apex(self):
        # T(1, 1) lies inside both, but a round from a point right of T(h)'s
        # right edge, with x = 0, leaves only the normal part of z, which
        # points below the apex
        rep = triangle_family_check(1, 1, candidate=Triangle(1, 2))
        assert rep.witnesses == (pt(-1, 0), pt(F(-1, 3), F(-1, 3)),
                                 pt(F(1, 3), F(-1, 3)), pt(1, 0))
        rep = triangle_family_check(1, 1, candidate=Triangle(F(3, 2), F(3, 2)))
        assert rep.witnesses == (pt(F(-5, 4), F(1, 2)), pt(F(-1, 5), F(-1, 5)),
                                 pt(F(1, 5), F(-1, 5)), pt(F(5, 4), F(1, 2)))

    def test_hand_example_one_round(self):
        # the delayed round from the apex of the envelope through T(1/2)
        tri = Triangle(F(1, 2), 1)
        z = ratios(pt(0, 1))
        x = ratios(pt(0, 0))
        out = add_ratios(sub_ratios(z, tri.nearest(z)), x)
        assert point_of(out) == pt(0, F(1, 2))
        assert Triangle(1, 1).holds(out)

    def test_half_candidate_fails(self):
        rep = triangle_family_check(1, 1, candidate=Triangle(F(1, 2), 1))
        assert not rep.passed
        assert any(w.y > F(1, 2) for w in rep.witnesses)

    def test_vertex_check_alone_finds_the_corners(self):
        # without the floor test: the round z = 0, h = 1 with x a corner of
        # T(1) leaves a lower or a narrower wedge
        for candidate, corners_out in ((Triangle(F(1, 2), 1), {pt(1, 1)}),
                                       (Triangle(1, F(1, 2)), {pt(-1, 1), pt(1, 1)})):
            escapes, _ = _escapes(Triangle(1, 1), candidate)
            assert corners_out <= {F_ for F_, *_ in escapes}

    def test_two_calls_give_equal_reports(self):
        a = triangle_family_check(1, F(2, 3), candidate=Triangle(F(1, 2), F(1, 3)))
        b = triangle_family_check(1, F(2, 3), candidate=Triangle(F(1, 2), F(1, 3)))
        assert a == b
        assert list(a.witnesses) == sorted(a.witnesses, key=Point.key)

    def test_degenerate_family(self):
        rep = triangle_family_check(0, 1)
        assert rep.passed
        assert rep.notes == "exact: 7 vertices of the 7 normal-fan pieces of T(h)"

    def test_candidate_of_height_zero_fails(self):
        rep = triangle_family_check(1, 1, candidate=Triangle(0, 1))
        assert rep.witnesses == (pt(-1, 1), pt(1, 1))
        assert triangle_family_check(0, 1, candidate=Triangle(0, 1)).passed

    def test_sampler_settings_are_gone(self):
        # the check can no longer pass on nothing checked: every fan piece
        # holds the vertex z = 0, h = 0
        for h_max in (0, 1):
            _, checked = _escapes(Triangle(h_max, 1), Triangle(0, 1))
            assert checked >= 7
        with pytest.raises(TypeError):
            triangle_family_check(1, 1, samples=10)
        with pytest.raises(TypeError):
            triangle_family_check(1, 1, seed=0)

    @given(heights, slopes)
    @settings(max_examples=30, deadline=None)
    def test_envelope_is_invariant_for_every_family(self, h_max, t):
        assert triangle_family_check(h_max, t).passed

    @given(heights, slopes, heights, slopes, st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_exact_check_against_the_sampler(self, h_max, t, height, slope, seed):
        target = Triangle(height, slope)
        rep = triangle_family_check(h_max, t, candidate=target)
        if rep.passed:
            assert sampled_family_escapes(h_max, t, 100, seed, target) == []
            return
        # a witness is a vertex escape or, from the floor test, a corner x
        # of T(h_max) reached from z = 0
        escapes, _ = _escapes(Triangle(h_max, t), target)
        rounds = {escape[0]: escape for escape in escapes}
        floor = [(w, ORIGIN, h_max, w) for w in rep.witnesses if w not in rounds]
        assert {w for w, *_ in floor} <= set(map(point_of, corners(Triangle(h_max, t))))
        for escape in escapes + floor:
            F_, z, h, x = escape
            assert not target.holds(ratios(F_))
            assert target.holds(ratios(z)) and 0 <= h <= h_max
            assert Triangle(h, t).holds(ratios(x))
            assert rederived(escape, t) == F_


class TestReachability:
    def test_zero_steps_is_the_origin(self):
        assert brute_force_reachable(SQUARE, 0) == (ORIGIN,)

    def test_unit_square_cloud_touches_all_sides(self):
        cloud = brute_force_reachable(SQUARE, 6)
        half = F(1, 2)
        assert all(max(abs(p.x), abs(p.y)) <= half for p in cloud)
        assert any(p.x == half for p in cloud)
        assert any(p.x == -half for p in cloud)
        assert any(p.y == half for p in cloud)
        assert any(p.y == -half for p in cloud)

    def test_cloud_is_inside_the_computed_minimal_set(self):
        res = iterate("g", Collection((SQUARE,)), PointSeed(ORIGIN))
        rep = reachable_within(SQUARE, res.final, 6)
        assert rep.passed
        assert "coverage" not in rep.notes  # ratio text says "covers"

    def test_full_coverage_ratio_for_the_square(self):
        cloud = brute_force_reachable(SQUARE, 6)
        assert coverage_ratio(cloud, box(F(1, 2))) == 1

    def test_flat_cloud_has_zero_ratio(self):
        assert coverage_ratio((ORIGIN, pt(1, 0)), box(1)) == 0

    def test_random_branching_cloud_stays_inside(self):
        res = iterate("g", Collection((DIAMOND,)), PointSeed(ORIGIN))
        rep = reachable_within(DIAMOND, res.final, 300, branching=1, seed=5)
        assert rep.passed

    def test_collection_cloud_spans_members(self):
        res = iterate("g", Collection((SQUARE, DIAMOND)), PointSeed(ORIGIN))
        rep = reachable_within(Collection((SQUARE, DIAMOND)), res.final, 3)
        assert rep.passed

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            brute_force_reachable(SQUARE, -1)

    def test_negative_branching_rejected(self):
        # a negative branching would draw no input and pass on the origin
        # alone, where two draws per expansion already escape a tiny box
        tiny = box(F(1, 100))
        assert not reachable_within(SQUARE, tiny, 3, branching=2).passed
        with pytest.raises(ValueError):
            brute_force_reachable(SQUARE, 3, branching=-2)
        with pytest.raises(ValueError):
            reachable_within(SQUARE, tiny, 3, branching=-2)

    def test_exhaustive_cloud_is_deterministic(self):
        assert brute_force_reachable(SQUARE, 4) == brute_force_reachable(SQUARE, 4)


class TestTriangleBoundAgreement:
    def test_family_check_bound_consistency(self):
        # a trajectory bound claim the exact check proves: one delayed
        # round from inside the envelope stays within the envelope, whose
        # squared diameter is triangle_bound
        rng = random.Random(12)
        env = Triangle(1, 1)
        for _ in range(200):
            h = F(rng.random()) * 1
            tri = Triangle(h, 1)
            z = sample_hull_ratios(env, rng)
            x = sample_hull_ratios(tri, rng)
            e = sub_ratios(z, tri.nearest(z))
            assert env.holds(add_ratios(e, x))
            assert point_of(e).norm_sq() <= triangle_bound(1, 1)
