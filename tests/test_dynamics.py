"""Tracking games: feasible sets, providers, opponents, traces, bounds."""
import hashlib
import io
import json
import random
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from errdiff.cli import _write_trace
from errdiff.dynamics import (
    Convex,
    Finite,
    InputOutsideHull,
    NotConvex,
    Opponent,
    ScenarioProvider,
    TraceStep,
    Triangle,
    TriangleFamily,
    _undelayed,
    check_containment,
    error_bound_from_domain,
    fan_weights,
    finite_members,
    play,
    sample_hull_ratios,
    triangle_bound,
)
from errdiff.geometry import (
    DegenerateHull,
    GeometryError,
    ORIGIN,
    Point,
    Region,
    add_ratios,
    dist_sq,
    over_common_denominator,
    point_of,
    pt,
    ratios,
    reduced,
    scalar_str,
    sub_ratios,
    vertex_ratios,
)
from errdiff.operators import Collection
from errdiff.scene import parse_scene
from errdiff.voronoi import SiteSet
from test_geometry import cross, dot, scale


def sites(*coords, id="S"):
    return SiteSet(tuple(pt(x, y) for x, y in coords), id=id)


SQUARE = Finite(sites((0, 0), (1, 0), (1, 1), (0, 1), id="unit-square"))
STAR8 = Finite(sites((2, 0), (0, 2), (-2, 0), (0, -2),
                     (F(1, 2), F(1, 2)), (F(-1, 2), F(1, 2)),
                     (F(1, 2), F(-1, 2)), (F(-1, 2), F(-1, 2)), id="star8"))
DIAMOND = Finite(sites((2, 0), (0, 2), (-2, 0), (0, -2), id="diamond"))

def corners(fs):
    """The vertices of a feasible set's hull ring, as Points."""
    return tuple(point_of(vertex_ratios(fs.ring, i)) for i in range(len(fs.ring[1])))


def holds(fs, p):
    """Membership of a Point, decided on its Ratios."""
    return fs.holds(ratios(p))


def nearest(fs, p):
    """The feasible output nearest to a Point, decided on its Ratios."""
    return point_of(fs.nearest(ratios(p)))


def points(s):
    """A round's input, output, error and target as Points."""
    return tuple(point_of(q) for q in (s.qx, s.qy, s.qe, s.qz))


def final_error(steps):
    """The error left after a game's last round, its z - y, or the origin
    when there is none."""
    return point_of(sub_ratios(steps[-1].qz, steps[-1].qy)) if steps else ORIGIN


HALF_BOX = Region.from_ring((pt(F(-1, 2), F(-1, 2)), pt(F(1, 2), F(-1, 2)),
                             pt(F(1, 2), F(1, 2)), pt(F(-1, 2), F(1, 2))))


class TestFeasibleSets:
    def test_finite_projection_tie_break(self):
        assert nearest(SQUARE, pt(F(1, 2), F(1, 2))) == pt(0, 0)

    def test_finite_contains_hull_not_just_sites(self):
        assert holds(SQUARE, pt(F(1, 3), F(2, 3)))
        assert not holds(SQUARE, pt(F(1, 3), F(4, 3)))

    def test_convex_projects_to_nearest_point(self):
        fs = Convex(Region.hull_of((pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2))))
        assert nearest(fs, pt(1, 1)) == pt(1, 1)
        assert nearest(fs, pt(3, 1)) == pt(2, 1)
        assert nearest(fs, pt(-1, -1)) == pt(0, 0)

    def test_triangle_membership_is_exact(self):
        tri = Triangle(1, 1)
        assert holds(tri, ORIGIN)
        assert holds(tri, pt(F(1, 2), F(1, 2)))
        assert holds(tri, pt(-1, 1))
        assert not holds(tri, pt(F(1, 2) + F(1, 10 ** 20), F(1, 2)))
        assert not holds(tri, pt(0, -F(1, 10 ** 20)))
        assert not holds(tri, pt(0, 1 + F(1, 10 ** 20)))

    def test_triangle_projection(self):
        tri = Triangle(1, 1)
        assert nearest(tri, pt(0, 2)) == pt(0, 1)
        assert nearest(tri, pt(0, F(1, 2))) == pt(0, F(1, 2))
        assert nearest(tri, pt(-1, 0)) == pt(F(-1, 2), F(1, 2))
        assert nearest(tri, pt(-5, F(1, 2))) == pt(-1, 1)

    def test_degenerate_triangle_collapses_to_origin(self):
        tri = Triangle(0, 3)
        assert corners(tri) == (ORIGIN,)
        assert holds(tri, ORIGIN)
        assert not holds(tri, pt(0, F(1, 10 ** 9)))
        assert nearest(tri, pt(7, -3)) == ORIGIN

    def test_triangle_parameter_validation(self):
        with pytest.raises(ValueError):
            Triangle(-1, 1)
        with pytest.raises(ValueError):
            Triangle(1, 0)
        with pytest.raises(ValueError):
            TriangleFamily(1, -2)

    def test_triangle_rejects_a_float(self):
        with pytest.raises(TypeError, match="inexact coordinate 0.5"):
            Triangle(0.5, 1)
        with pytest.raises(TypeError, match="inexact coordinate 1.0"):
            Triangle(1, 1.0)
        assert Triangle("1/2", 1) == Triangle(F(1, 2), 1)

    def test_triangle_family_rejects_a_float(self):
        with pytest.raises(TypeError, match="inexact coordinate 0.1"):
            TriangleFamily(0.1, 1)
        with pytest.raises(TypeError, match="inexact coordinate 0.25"):
            TriangleFamily(1, 0.25)
        with pytest.raises(TypeError, match="inexact coordinate 0.1"):
            triangle_bound(0.1, 1)

    def test_convex_rejects_a_polygon_that_is_not(self):
        # the edge loop would move (1/2, 3/2), which the L holds, to (1, 3/2)
        lshape = Region.from_ring((pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)))
        with pytest.raises(NotConvex, match="L: the polygon is not convex"):
            Convex(lshape, label="L")
        assert issubclass(NotConvex, GeometryError)
        assert Convex(Region.hull_of(lshape.vertices)).polygon.area2 == 7

    def test_set_ids(self):
        assert SQUARE.set_id == "unit-square"
        assert Triangle(F(1, 2), 2).set_id == "T(1/2,2)"
        assert Convex(Region.hull_of(corners(SQUARE))).set_id == "convex"


class TestProviders:
    def test_fixed_repeats(self):
        p = ScenarioProvider.fixed(SQUARE)
        import random
        rng = random.Random(0)
        assert [p.pick(n, rng) for n in range(4)] == [SQUARE] * 4

    def test_cyclic_round_robin(self):
        p = ScenarioProvider.cyclic((SQUARE, DIAMOND))
        import random
        rng = random.Random(0)
        got = [p.pick(n, rng) for n in range(5)]
        assert got == [SQUARE, DIAMOND, SQUARE, DIAMOND, SQUARE]

    def test_random_choice_is_seeded(self):
        import random
        p = ScenarioProvider.random_choice((SQUARE, DIAMOND, STAR8), seed=4)
        rng_a = random.Random(11)
        rng_b = random.Random(11)
        a = [p.pick(n, rng_a) for n in range(40)]
        b = [p.pick(n, rng_b) for n in range(40)]
        assert a == b
        assert {fs.set_id for fs in a} == {"unit-square", "diamond", "star8"}

    def test_random_triangle_heights_stay_in_range(self):
        import random
        p = ScenarioProvider.random_triangle(F(3, 2), F(1, 2), seed=0)
        rng = random.Random(5)
        for n in range(50):
            tri = p.pick(n, rng)
            assert isinstance(tri, Triangle)
            assert 0 <= tri.h <= F(3, 2)
            assert tri.t == F(1, 2)

    def test_provider_validation(self):
        with pytest.raises(ValueError):
            ScenarioProvider("warp", (SQUARE,))
        with pytest.raises(ValueError):
            ScenarioProvider("cyclic", ())
        with pytest.raises(ValueError):
            ScenarioProvider("random-triangle")

    def test_finite_members_wraps_collection(self):
        coll = Collection((SQUARE.sites, DIAMOND.sites))
        members = finite_members(coll)
        assert [m.set_id for m in members] == ["unit-square", "diamond"]


class TestOpponents:
    def test_vertex_cycle_order(self):
        opp = Opponent("hull-vertex-cycle")
        verts = corners(SQUARE)
        got = [opp.pick(SQUARE, ratios(ORIGIN), n, None) for n in range(6)]
        assert got == [ratios(verts[i]) for i in (0, 1, 2, 3, 0, 1)]

    def test_error_aligned_maximizes_dot(self):
        opp = Opponent("error-aligned-vertex")
        assert opp.pick(DIAMOND, ratios(pt(1, 0)), 0, None) == ratios(pt(2, 0))
        assert opp.pick(DIAMOND, ratios(pt(-1, -3)), 0, None) == ratios(pt(0, -2))

    def test_error_aligned_tie_breaks_lexicographically(self):
        opp = Opponent("error-aligned-vertex")
        # zero error ties every vertex; smallest coordinates win
        assert opp.pick(DIAMOND, ratios(ORIGIN), 0, None) == ratios(pt(-2, 0))
        # (1,0) and (1,1) tie on the dot with (1,0)
        assert opp.pick(SQUARE, ratios(pt(1, 0)), 0, None) == ratios(pt(1, 0))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_uniform_sample_lands_in_hull(self, seed):
        import random
        opp = Opponent("uniform-random-in-hull")
        rng = random.Random(seed)
        for fs in (SQUARE, STAR8, Triangle(F(2, 3), F(3, 2))):
            for n in range(4):
                assert fs.holds(opp.pick(fs, ratios(ORIGIN), n, rng))

    def test_degenerate_triangle_forces_origin(self):
        import random
        tri = Triangle(0, 1)
        for strat in ("uniform-random-in-hull", "hull-vertex-cycle",
                      "error-aligned-vertex"):
            got = Opponent(strat).pick(tri, ratios(pt(1, 1)), 3, random.Random(0))
            assert got == ratios(ORIGIN)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Opponent("psychic")


def undelayed(e, fs, x):
    """One undelayed round from error e on input x, as Points."""
    return tuple(map(point_of, _undelayed(ratios(e), fs, ratios(x))))


def delayed(provider, *inputs):
    """The rounds of a delayed game whose opponent plays the inputs in turn,
    each as its Points."""
    return [points(s) for s in play("delayed", provider, _Script(*inputs), len(inputs))]


class TestSteps:
    def test_undelayed_center_tie(self):
        y, e, z = undelayed(ORIGIN, SQUARE, pt(F(1, 2), F(1, 2)))
        assert y == pt(0, 0)
        assert e == pt(F(1, 2), F(1, 2))
        assert z == pt(F(1, 2), F(1, 2))

    def test_undelayed_accumulated_error_flips_cell(self):
        y, e, z = undelayed(pt(F(1, 2), F(1, 2)), SQUARE, pt(F(1, 2), F(1, 2)))
        assert y == pt(1, 1)
        assert e == ORIGIN

    def test_undelayed_continuous_set_tracks_exactly(self):
        fs = Convex(Region.hull_of(corners(Triangle(1, 1))))
        y, e, z = undelayed(ORIGIN, fs, pt(0, F(1, 2)))
        assert y == pt(0, F(1, 2))
        assert e == ORIGIN

    def test_undelayed_rejects_outside_input(self):
        with pytest.raises(InputOutsideHull):
            undelayed(ORIGIN, SQUARE, pt(2, 0))

    def test_delayed_square_example(self):
        # the running total (9/10, 1/10) is the first input itself
        (_, y, _, _), (_, _, e, z) = delayed(ScenarioProvider.fixed(SQUARE),
                                             pt(F(9, 10), F(1, 10)), pt(F(1, 2), F(1, 2)))
        assert y == pt(1, 0)
        assert e == pt(F(-1, 10), F(1, 10))
        assert z == pt(F(2, 5), F(3, 5))

    def test_delayed_exact_hit_clears_error(self):
        (_, y, _, _), (_, _, e, z) = delayed(ScenarioProvider.fixed(SQUARE),
                                             pt(1, 1), pt(F(1, 4), F(1, 4)))
        assert y == pt(1, 1)
        assert e == ORIGIN
        assert z == pt(F(1, 4), F(1, 4))

    def test_delayed_apex_projection(self):
        # the running total (0, 1), an input drawn from T(1) after a zero
        # error, is quantized on T(1/2), the set revealed at round 1
        _, (_, y, _, _), (_, _, e, z) = delayed(
            ScenarioProvider.cyclic((Triangle(1, 1), Triangle(F(1, 2), 1))),
            ORIGIN, pt(0, 1), pt(0, 0))
        assert y == pt(0, F(1, 2))
        assert e == pt(0, F(1, 2))
        assert z == pt(0, F(1, 2))

    def test_delayed_rejects_outside_input(self):
        with pytest.raises(InputOutsideHull):
            delayed(ScenarioProvider.fixed(Triangle(1, 1)), ORIGIN, pt(0, 2))


class TestRun:
    def test_zero_steps_gives_empty_trace(self):
        p = ScenarioProvider.fixed(SQUARE)
        for mode in ("undelayed", "delayed"):
            tr = list(play(mode, p, Opponent("hull-vertex-cycle"), 0))
            assert len(tr) == 0
            assert final_error(tr) == ORIGIN

    def test_vertex_cycle_on_square_never_errs(self):
        # hull vertices are sites, so the greedy answer is always exact
        tr = list(play("undelayed", ScenarioProvider.fixed(SQUARE),
                       Opponent("hull-vertex-cycle"), 8))
        assert [point_of(s.qe) for s in tr] == [ORIGIN] * 8
        assert check_containment(tr, HALF_BOX) == []

    def test_undelayed_bookkeeping_identities(self):
        steps = list(play("undelayed", ScenarioProvider.fixed(STAR8),
                          Opponent("uniform-random-in-hull", seed=2), 60, seed=9))
        tr = [points(s) for s in steps]
        assert tr[0][2] == ORIGIN
        for (ax, ay, ae, _), (_, _, be, _) in zip(tr, tr[1:]):
            assert be == ae + ax - ay
        for x, _, e, z in tr:
            assert z == e + x
        x, y, e, _ = tr[-1]
        assert final_error(steps) == e + x - y

    def test_delayed_bookkeeping_identities(self):
        p = ScenarioProvider.random_triangle(1, 1, seed=3)
        tr = [points(s) for s in play("delayed", p, Opponent("uniform-random-in-hull", seed=4),
                                      60, seed=1)]
        assert tr[0][2] == ORIGIN
        assert tr[0][3] == tr[0][0]
        for (ax, ay, ae, _), (bx, _, be, bz) in zip(tr, tr[1:]):
            assert be == ae + ax - ay
            assert bz == be + bx

    def test_delayed_inputs_come_from_previous_set(self):
        p = ScenarioProvider.cyclic((SQUARE, DIAMOND))
        tr = list(play("delayed", p, Opponent("uniform-random-in-hull", seed=6),
                       30, seed=2))
        order = [SQUARE, DIAMOND]
        for s in tr:
            assert s.set_id == order[s.n % 2].set_id
        for a, b in zip(tr, tr[1:]):
            # x_{n+1} was drawn before set n+1 was revealed
            assert order[a.n % 2].holds(b.qx)

    def test_undelayed_greedy_is_optimal_sitewise(self):
        for x, y, e, z in map(points, play("undelayed", ScenarioProvider.fixed(STAR8),
                                           Opponent("uniform-random-in-hull", seed=7),
                                           80, seed=5)):
            best = dist_sq(z, y)
            assert all(best <= dist_sq(z, c) for c in STAR8.sites.sites)

    def test_equal_seeds_replay_equal_traces(self):
        p = ScenarioProvider.random_choice((SQUARE, DIAMOND, STAR8), seed=1)
        o = Opponent("uniform-random-in-hull", seed=2)
        a = list(play("undelayed", p, o, 120, seed=8))
        b = list(play("undelayed", p, o, 120, seed=8))
        assert a == b
        assert [s.as_record() for s in a] == [s.as_record() for s in b]
        c = list(play("undelayed", p, o, 120, seed=9))
        assert a != c

    def test_play_checks_its_arguments_when_called(self):
        p = ScenarioProvider.fixed(SQUARE)
        with pytest.raises(ValueError, match="unknown mode"):
            play("psychic", p, Opponent("hull-vertex-cycle"), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            play("delayed", p, Opponent("hull-vertex-cycle"), -1)

    @pytest.mark.parametrize("mode, provider", [
        ("undelayed", ScenarioProvider.random_choice((SQUARE, STAR8), seed=1)),
        ("delayed", ScenarioProvider.random_triangle(1, F(1, 3), seed=2))])
    def test_play_is_lazy_and_run_collects_it(self, mode, provider):
        # the first rounds of an endless game are the rounds of a short one
        o = Opponent("uniform-random-in-hull", seed=3)
        head = list(islice(play(mode, provider, o, 10**12, seed=4), 50))
        assert head == list(play(mode, provider, o, 50, seed=4))

    def test_random_square_errors_stay_in_half_box(self):
        tr = play("undelayed", ScenarioProvider.fixed(SQUARE),
                  Opponent("uniform-random-in-hull", seed=3), 400, seed=4)
        assert check_containment(tr, HALF_BOX) == []

    def test_delayed_triangle_family_containment_and_bound(self):
        fam_bound = triangle_bound(1, 1)
        p = ScenarioProvider.random_triangle(1, 1, seed=5)
        tr = list(play("delayed", p, Opponent("uniform-random-in-hull", seed=6),
                       500, seed=7))
        assert check_containment(tr, Triangle(1, 1), which="z") == []
        assert all(point_of(s.qe).norm_sq() <= fam_bound for s in tr)
        assert final_error(tr).norm_sq() <= fam_bound

    def test_trace_records_shape(self):
        recs = [s.as_record() for s in play("undelayed", ScenarioProvider.fixed(SQUARE),
                                             Opponent("hull-vertex-cycle"), 3)]
        assert [r["step"] for r in recs] == [0, 1, 2]
        assert recs[1] == {"step": 1, "set": "unit-square",
                           "x": ["1", "0"], "y": ["1", "0"],
                           "e": ["0", "0"], "z": ["1", "0"]}


class TestContainmentCheck:
    def trace(self):
        return list(play("undelayed", ScenarioProvider.fixed(SQUARE),
                         Opponent("uniform-random-in-hull", seed=1), 200, seed=2))

    def test_violations_are_reported_with_indices(self):
        tr = self.trace()
        tight = Region.from_ring((pt(F(-1, 8), F(-1, 8)), pt(F(1, 8), F(-1, 8)),
                                  pt(F(1, 8), F(1, 8)), pt(F(-1, 8), F(1, 8))))
        bad = check_containment(tr, tight)
        assert bad
        assert bad == sorted(bad)
        assert all(0 <= n <= len(tr) for n in bad)

    def test_final_error_is_checked_under_trailing_index(self):
        # one round inside HALF_BOX that leaves the error z - y = (10, 10)
        step = TraceStep(0, "s", ratios(ORIGIN), ratios(ORIGIN), ratios(ORIGIN),
                         ratios(pt(10, 10)))
        assert check_containment([step], HALF_BOX) == [1]
        assert check_containment([step], HALF_BOX, which="z") == [0]
        assert check_containment([], Region.from_ring(corners(SQUARE))) == []
        assert check_containment([], Region.from_ring((pt(1, 1), pt(2, 1), pt(1, 2)))) == [0]

    def test_a_live_game_is_checked_as_it_is_played(self):
        # the generator is read once; the error left after the last round,
        # its z - y, is reported under the index that counts the steps
        game = play("undelayed", ScenarioProvider.fixed(SQUARE),
                    Opponent("uniform-random-in-hull", seed=1), 200, seed=2)
        tiny = Region.from_ring((pt(F(-1, 10**6), F(-1, 10**6)), pt(F(1, 10**6), F(-1, 10**6)),
                                 pt(F(1, 10**6), F(1, 10**6)), pt(F(-1, 10**6), F(1, 10**6))))
        bad = check_containment(game, tiny)
        assert next(game, None) is None
        tr = self.trace()
        assert not tiny.holds(sub_ratios(tr[-1].qz, tr[-1].qy))
        assert bad == [s.n for s in tr if not tiny.holds(s.qe)] + [200]

    def test_z_check_skips_final(self):
        tr = self.trace()
        hull = Region.from_ring(corners(SQUARE))
        # z_n = e_n + x_n can leave the hull, but stays in hull + half box
        grown = Region.from_ring((pt(F(-1, 2), F(-1, 2)), pt(F(3, 2), F(-1, 2)),
                                  pt(F(3, 2), F(3, 2)), pt(F(-1, 2), F(3, 2))))
        assert check_containment(tr, grown, which="z") == []
        assert isinstance(check_containment(tr, hull, which="z"), list)

    def test_feasible_sets_and_polygons_work_as_domains(self):
        tr = self.trace()
        assert check_containment(tr, Convex(Region.hull_of(
            HALF_BOX.vertices))) == []
        assert check_containment(tr, Region.hull_of(
            HALF_BOX.vertices)) == []

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            check_containment(self.trace(), HALF_BOX, which="w")


UNIT_BOX = Region.from_ring((pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)))


class TestBounds:
    def test_square_domain_bound(self):
        assert error_bound_from_domain(UNIT_BOX, Collection((SQUARE.sites,))) == 2

    def test_hull_domain_matches_vertex_enumeration(self):
        for fs in (STAR8, DIAMOND):
            D = Region.from_ring(corners(fs))
            verts = fs.sites.hull.vertices
            brute = max(dist_sq(a, b) for a in D.vertices for b in verts)
            got = error_bound_from_domain(D, fs.sites)
            assert got == min(brute, D.diameter_sq)

    @pytest.mark.parametrize("scenario", [TriangleFamily(0, 1), Triangle(0, 1)],
                             ids=["TriangleFamily", "Triangle"])
    def test_degenerate_triangle_scenario(self, scenario):
        # T(0, t) is the origin alone: a corner of UNIT_BOX, so the box's
        # diameter bounds it too; outside the shifted box only the far
        # corner (2, 2) does
        assert error_bound_from_domain(UNIT_BOX, scenario) == 2
        shifted = Region.from_ring((pt(1, 1), pt(2, 1), pt(2, 2), pt(1, 2)))
        assert error_bound_from_domain(shifted, scenario) == 8

    def test_triangle_family_bound(self):
        D = Region.from_ring(corners(Triangle(1, 1)))
        assert error_bound_from_domain(D, TriangleFamily(1, 1)) == 4

    def test_sites_outside_domain_disable_diameter_bound(self):
        grid9 = sites(*[(x, y) for x in (-1, 1, 3) for y in (-1, 1, 3)], id="g9")
        got = error_bound_from_domain(UNIT_BOX, Collection((grid9,)))
        assert got == 18
        assert got > UNIT_BOX.diameter_sq

    def test_scenario_sequences_are_accepted(self):
        got = error_bound_from_domain(UNIT_BOX, [SQUARE, TriangleFamily(1, 1)])
        assert got == max(2, error_bound_from_domain(UNIT_BOX, TriangleFamily(1, 1)))

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            error_bound_from_domain(UNIT_BOX, [])

    @pytest.mark.parametrize("domain", [
        Finite(sites((0, 0), (1, 0), (0, 1), id="f")),
        Convex(Region.hull_of([pt(0, 0), pt(1, 0), pt(0, 1)])),
        Triangle(1, 1),
    ], ids=["Finite", "Convex", "Triangle"])
    def test_feasible_set_domain_rejected(self, domain):
        # check_containment accepts these domains; the bound does not
        with pytest.raises(TypeError, match=type(domain).__name__):
            error_bound_from_domain(domain, SQUARE)

    def test_triangle_bound_values(self):
        assert triangle_bound(1, 1) == 4
        assert triangle_bound(1, F(1, 2)) == F(5, 4)
        assert triangle_bound(0, 1) == 0

    @given(st.fractions(min_value=0, max_value=3),
           st.fractions(min_value=F(1, 4), max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_triangle_bound_is_envelope_diameter(self, h, t):
        tri = Triangle(h, t)
        if h == 0:
            assert triangle_bound(h, t) == 0
            return
        D = Region.from_ring(corners(tri))
        assert triangle_bound(h, t) == D.diameter_sq


@st.composite
def game_setup(draw):
    mode = draw(st.sampled_from(("undelayed", "delayed")))
    provider = draw(st.sampled_from((
        ScenarioProvider.fixed(SQUARE),
        ScenarioProvider.cyclic((SQUARE, DIAMOND, STAR8)),
        ScenarioProvider.random_choice((SQUARE, DIAMOND, STAR8), seed=1),
        ScenarioProvider.random_triangle(2, F(2, 3), seed=2),
    )))
    strategy = draw(st.sampled_from(
        ("uniform-random-in-hull", "hull-vertex-cycle", "error-aligned-vertex")))
    steps = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 10 ** 6))
    return mode, provider, Opponent(strategy, seed=3), steps, seed


class TestGameProperties:
    @given(game_setup())
    @settings(max_examples=50, deadline=None)
    def test_bookkeeping_holds_for_any_game(self, setup):
        mode, provider, opponent, steps, seed = setup
        tr = list(play(mode, provider, opponent, steps, seed=seed))
        assert len(tr) == steps
        if not tr:
            assert final_error(tr) == ORIGIN
            return
        assert point_of(tr[0].qe) == ORIGIN
        for a, b in zip(tr, tr[1:]):
            ax, ay, ae, _ = points(a)
            assert point_of(b.qe) == ae + ax - ay
            assert b.n == a.n + 1
        for s in tr:
            x, _, e, z = points(s)
            assert z == e + x
        x, y, e, _ = points(tr[-1])
        assert final_error(tr) == e + x - y

    @given(game_setup())
    @settings(max_examples=30, deadline=None)
    def test_replays_are_identical(self, setup):
        mode, provider, opponent, steps, seed = setup
        assert list(play(mode, provider, opponent, steps, seed=seed)) == \
            list(play(mode, provider, opponent, steps, seed=seed))


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction formulas they replace

wide = st.integers(1, 2**128).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).map(lambda n: F(n, d)))
narrow = st.fractions(min_value=-2, max_value=2, max_denominator=4)
wide_positive = st.integers(1, 2**128).flatmap(
    lambda d: st.integers(1, 4 * d).map(lambda n: F(n, d)))


def reference_sample(verts, rng):
    """sample_hull_ratios in Fraction arithmetic."""
    if len(verts) == 1:
        return verts[0]
    a = verts[0]
    fans = [(verts[i], verts[i + 1]) for i in range(1, len(verts) - 1)]
    weights = [cross(b - a, c - a) for b, c in fans]
    r = F(rng.random()) * sum(weights)
    acc = F(0)
    b, c = fans[-1]
    for (fb, fc), w in zip(fans, weights):
        acc += w
        if r < acc:
            b, c = fb, fc
            break
    u = F(rng.random())
    v = F(rng.random())
    if u + v > 1:
        u, v = 1 - u, 1 - v
    return a + scale(b - a, u) + scale(c - a, v)


def reference_project_convex(poly, x):
    """project_convex in Fraction arithmetic; the first strictly nearer
    edge wins."""
    vs = poly.vertices
    sides = list(zip(vs, vs[1:] + vs[:1]))
    if all(cross(v - u, x - u) >= 0 for u, v in sides):
        return x
    best = best_d = None
    for u, v in sides:
        d = v - u
        t = min(max(dot(x - u, d) / d.norm_sq(), F(0)), F(1))
        cand = u + scale(d, t)
        if best_d is None or dist_sq(x, cand) < best_d:
            best, best_d = cand, dist_sq(x, cand)
    return best


def reference_aligned(verts, error):
    """The error-aligned pick from Fraction dot products."""
    best = verts[0]
    for v in verts[1:]:
        if dot(v, error) > dot(best, error) or (
                dot(v, error) == dot(best, error) and v.key() < best.key()):
            best = v
    return best


@st.composite
def hulls(draw, c):
    pts = draw(st.lists(st.builds(Point, c, c), min_size=3, max_size=8))
    try:
        return Region.hull_of(pts).vertices
    except DegenerateHull:
        assume(False)


triangles = st.builds(Triangle, st.one_of(st.just(F(0)), wide_positive,
                                          st.fractions(0, 2, max_denominator=4)),
                      st.one_of(wide_positive, st.fractions(F(1, 4), 2, max_denominator=4)))


@st.composite
def triangle_and_point(draw):
    """A wedge and a point that is free, a corner, or on a side or its line."""
    tri = draw(triangles)
    verts = corners(tri)
    kind = draw(st.sampled_from(("free", "corner", "side")))
    if kind == "free" or len(verts) == 1:
        c = draw(st.sampled_from((wide, narrow)))
        return tri, draw(st.builds(Point, c, c))
    i = draw(st.integers(0, 2))
    u, v = verts[i], verts[(i + 1) % 3]
    if kind == "corner":
        return tri, u
    t = draw(st.fractions(-1, 2, max_denominator=6))
    return tri, u + scale(v - u, t)


# heights as the random-triangle provider draws them, Fraction(float) * h_max,
# and slopes with denominators up to 2**64
drawn_triangles = st.builds(
    lambda u, h_max, t: Triangle(F(u) * h_max, t),
    st.floats(0, 1, exclude_max=True),
    st.one_of(wide_positive, st.fractions(F(1, 4), 2, max_denominator=4)),
    st.integers(1, 2**64).flatmap(lambda d: st.integers(1, 4 * d).map(lambda n: F(n, d))))


lattice = st.integers(-3, 3).map(F)
halves = st.integers(-8, 8).map(lambda n: F(n, 2))


@st.composite
def feasible_sets(draw):
    """A Finite set (sites on a small lattice, so equidistant sites are
    common), a Convex set or a wedge, T(0, t) among them."""
    kind = draw(st.sampled_from(("finite", "convex", "triangle")))
    if kind == "triangle":
        return draw(triangles)
    c = draw(st.sampled_from((lattice, narrow, wide)))
    pts = draw(st.lists(st.builds(Point, c, c), min_size=3, max_size=7,
                        unique_by=Point.key))
    try:
        return Finite(SiteSet(tuple(pts))) if kind == "finite" \
            else Convex(Region.hull_of(pts))
    except DegenerateHull:
        assume(False)


@st.composite
def points_for(draw, fs, inside=False):
    """A point for fs: a hull vertex, a point of an edge (or of its line
    beyond the ends, unless inside), one equidistant from two vertices
    (or from two sites), or a free point (unless inside)."""
    verts = corners(fs)
    kinds = ("vertex", "edge") if inside else ("vertex", "edge", "tie", "free")
    kind = draw(st.sampled_from(kinds))
    if kind == "free" or (kind == "tie" and len(verts) == 1):
        c = draw(st.sampled_from((halves, narrow, wide)))
        return draw(st.builds(Point, c, c))
    i = draw(st.integers(0, len(verts) - 1))
    u, v = verts[i], verts[(i + 1) % len(verts)]
    if kind == "vertex":
        return u
    if kind == "edge":
        lo, hi = (0, 1) if inside else (-1, 2)
        return u + scale(v - u, draw(st.fractions(lo, hi, max_denominator=6)))
    sites_ = fs.sites.sites if isinstance(fs, Finite) else verts
    a, b = draw(st.permutations(sites_))[:2]
    d = b - a
    k = draw(st.fractions(-2, 2, max_denominator=4))
    return scale(a + b, F(1, 2)) + scale(Point(-d.y, d.x), k)


def reference_contains(fs, p):
    """Membership in Fraction arithmetic: the wedge's inequalities, or the
    inner side of every edge of the CCW hull."""
    if isinstance(fs, Triangle):
        return 0 <= p.y <= fs.h and abs(p.x) <= fs.t * p.y
    vs = corners(fs)
    return all(cross(v - u, p - u) >= 0 for u, v in zip(vs, vs[1:] + vs[:1]))


def reference_nearest(fs, p):
    """The projection in Fraction arithmetic: the nearest site, ties to the
    smallest, or the nearest point of the hull."""
    if isinstance(fs, Finite):
        return min(fs.sites.sites, key=lambda s: (dist_sq(s, p), s.key()))
    if isinstance(fs, Triangle) and fs.h == 0:
        return ORIGIN
    return reference_project_convex(Region.hull_of(corners(fs)), p)


class _Script:
    """Plays the given inputs in turn, then the last again, as Ratios: a
    delayed game draws one input ahead."""

    seed = None

    def __init__(self, *inputs):
        self.inputs = inputs

    def pick(self, fs, error, n, rng):
        return ratios(self.inputs[min(n, len(self.inputs) - 1)])


def per_round_sample(scaled, rng):
    """sample_hull_ratios with the fan weights built on every call, kept as
    the reference for the weights built once per set."""
    m, xs, ys = scaled
    if len(xs) == 1:
        return vertex_ratios(scaled, 0)
    ax, ay = xs[0], ys[0]
    weights = [(xs[i] - ax) * (ys[i + 1] - ay) - (ys[i] - ay) * (xs[i + 1] - ax)
               for i in range(1, len(xs) - 1)]
    rn, rd = rng.random().as_integer_ratio()
    r = rn * sum(weights)
    b = len(xs) - 2
    acc = 0
    for i, w in enumerate(weights, 1):
        acc += w
        if r < acc * rd:
            b = i
            break
    un, ud = rng.random().as_integer_ratio()
    vn, vd = rng.random().as_integer_ratio()
    if un * vd + vn * ud > ud * vd:
        un, vn = ud - un, vd - vn
    den = m * ud * vd
    return (*reduced(ax * ud * vd + (xs[b] - ax) * un * vd + (xs[b + 1] - ax) * vn * ud, den),
            *reduced(ay * ud * vd + (ys[b] - ay) * un * vd + (ys[b + 1] - ay) * vn * ud, den))


class TestFanOncePerSet:
    @given(feasible_sets() | drawn_triangles, st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_cached_fan_draws_as_per_round_weights(self, fs, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        opponent = Opponent("uniform-random-in-hull")
        for n in range(4):
            want = per_round_sample(fs.ring, ref_rng)
            if n % 2:
                assert opponent.pick(fs, (0, 1, 0, 1), n, rng) == want
            else:
                assert sample_hull_ratios(fs, rng) == want
            assert rng.getstate() == ref_rng.getstate()
        assert fs.fan is fs.fan

    @given(feasible_sets() | drawn_triangles)
    @settings(max_examples=200, deadline=None)
    def test_fan_weights_are_cumulative_fan_areas(self, fs):
        verts = corners(fs)
        fan = fan_weights(fs.ring)
        if len(verts) <= 3:
            assert fan == ()
            return
        m = fs.ring[0]
        a = verts[0]
        areas = [cross(verts[i] - a, verts[i + 1] - a) * m * m
                 for i in range(1, len(verts) - 1)]
        assert fan == tuple(sum(areas[:i + 1]) for i in range(len(areas)))
        assert all(w > 0 for w in areas)


class TestIntegerKernels:
    @given(st.one_of(hulls(wide), hulls(narrow)).map(lambda verts: Finite(SiteSet(verts)))
           | triangles,
           st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_sample_hull_point_matches_fraction_formula(self, fs, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        verts = corners(fs)
        for _ in range(3):
            assert sample_hull_ratios(fs, rng) == ratios(reference_sample(verts, ref_rng))
        assert rng.getstate() == ref_rng.getstate()

    @given(st.one_of(hulls(wide), hulls(narrow)).flatmap(
               lambda verts: st.sampled_from((Finite(SiteSet(verts)),
                                              Convex(Region.hull_of(verts)))))
           | triangles | drawn_triangles)
    @settings(max_examples=300, deadline=None)
    def test_cached_ring_is_the_hull_over_its_denominator(self, fs):
        verts = corners(fs)
        if isinstance(fs, Triangle):
            w = fs.t * fs.h
            assert verts == ((ORIGIN,) if fs.h == 0
                             else (ORIGIN, Point(w, fs.h), Point(-w, fs.h)))
            assert fs.ring is fs.ring
        else:
            assert verts == (fs.sites.hull if isinstance(fs, Finite) else fs.polygon).vertices
        m, xs, ys = fs.ring
        assert (m, list(xs), list(ys)) == over_common_denominator(verts)

    @given(triangle_and_point())
    @settings(max_examples=300, deadline=None)
    def test_triangle_matches_fraction_formulas(self, case):
        tri, p = case
        assert holds(tri, p) == (0 <= p.y <= tri.h and abs(p.x) <= tri.t * p.y)
        want = ORIGIN if tri.h == 0 else reference_project_convex(
            Region.hull_of(corners(tri)), p)
        assert nearest(tri, p) == want

    @given(feasible_sets().flatmap(lambda fs: st.tuples(st.just(fs), points_for(fs))))
    @settings(max_examples=400, deadline=None)
    def test_holds_and_nearest_match_fraction_formulas(self, case):
        fs, p = case
        q = ratios(p)
        assert fs.holds(q) == reference_contains(fs, p)
        want = reference_nearest(fs, p)
        # equal tuples: the integer pairs are reduced, denominators positive
        assert fs.nearest(q) == ratios(want)

    @given(feasible_sets().flatmap(lambda fs: st.tuples(
        st.just(fs), points_for(fs), points_for(fs, inside=True))))
    @settings(max_examples=300, deadline=None)
    def test_one_round_matches_fraction_formulas(self, case):
        fs, e, x = case
        z = e + x
        y = reference_nearest(fs, z)
        assert undelayed(e, fs, x) == (y, z - y, z)
        # delayed: e stands for the running total, quantized before x counts,
        # as play's delayed rounds do it on Ratios
        y = reference_nearest(fs, e)
        qy = fs.nearest(ratios(e))
        qe = sub_ratios(ratios(e), qy)
        assert (qy, qe, add_ratios(qe, ratios(x))) == tuple(map(ratios, (y, e - y, e - y + x)))

    @given(feasible_sets().flatmap(lambda fs: st.tuples(
        st.just(fs), points_for(fs, inside=True), points_for(fs, inside=True))))
    @settings(max_examples=200, deadline=None)
    def test_two_game_rounds_match_fraction_formulas(self, case):
        # the steps' own integer pairs, so a sum left unreduced shows; on a
        # fixed set both modes play the same two rounds
        fs, x0, x1 = case
        y0 = reference_nearest(fs, x0)
        e1 = x0 - y0
        z1 = e1 + x1
        y1 = reference_nearest(fs, z1)
        want = [tuple(map(ratios, s)) for s in ((x0, y0, ORIGIN, x0), (x1, y1, e1, z1))]
        for mode in ("undelayed", "delayed"):
            tr = play(mode, ScenarioProvider.fixed(fs), _Script(x0, x1), 2)
            assert [(s.qx, s.qy, s.qe, s.qz) for s in tr] == want

    @given(st.one_of(hulls(wide), hulls(narrow)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_error_aligned_matches_fraction_formula(self, verts, data):
        S = SiteSet(verts)
        u, v = verts[0], verts[1]
        error = data.draw(st.one_of(
            st.builds(Point, wide, wide), st.just(ORIGIN),
            # normal to an edge: both its ends tie on the dot
            st.builds(lambda k: Point(k * (v.y - u.y), k * (u.x - v.x)), narrow)))
        got = Opponent("error-aligned-vertex").pick(Finite(S), ratios(error), 0, None)
        assert got == ratios(reference_aligned(S.hull.vertices, error))


# ---------------------------------------------------------------------------
# trace bytes and outside inputs

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _shipped(stem):
    (collection,) = parse_scene((SCENES / f"{stem}.json").read_text()).collections.values()
    return finite_members(collection)


def _written(mode, steps):
    """The JSONL trace that `errdiff simulate` writes."""
    fh = io.StringIO()
    assert _write_trace(fh, mode, steps) == (len(steps), final_error(steps))
    return fh.getvalue()


def _trace_sha256(mode, steps):
    return hashlib.sha256(_written(mode, steps).encode()).hexdigest()


# a quote, a backslash and a non-ASCII letter: json.dumps escapes all three
ODD_ID = 'sq"\\é'


class TestTraceWriter:
    """The directly formatted lines against json.dumps of each step's
    record."""

    @staticmethod
    def _dumped(mode, steps):
        final = final_error(steps)
        summary = {"mode": mode, "steps": len(steps),
                   "final_e": [scalar_str(final.x), scalar_str(final.y)]}
        return "".join(json.dumps(r) + "\n"
                       for r in [s.as_record() for s in steps] + [summary])

    def test_undelayed_finite(self):
        odd = Finite(sites((0, 0), (1, 0), (1, 1), (0, 1), id=ODD_ID))
        tr = list(play("undelayed", ScenarioProvider.cyclic([odd, STAR8]),
                       Opponent("uniform-random-in-hull", seed=1), 200, seed=2))
        assert {s.set_id for s in tr} == {ODD_ID, "star8"}
        assert _written("undelayed", tr) == self._dumped("undelayed", tr)

    def test_undelayed_convex(self):
        odd = Convex(Region.hull_of(corners(STAR8)), label=ODD_ID)
        tr = list(play("undelayed", ScenarioProvider.fixed(odd),
                       Opponent("uniform-random-in-hull", seed=3), 200, seed=4))
        assert _written("undelayed", tr) == self._dumped("undelayed", tr)
        assert '"set": "sq\\"\\\\\\u00e9"' in _written("undelayed", tr)

    def test_delayed_triangle(self):
        tr = list(play("delayed", ScenarioProvider.random_triangle(1, F(1, 3), seed=5),
                       Opponent("uniform-random-in-hull", seed=6), 200, seed=7))
        assert _written("delayed", tr) == self._dumped("delayed", tr)

    @pytest.mark.parametrize("mode", ["undelayed", "delayed"])
    def test_no_steps(self, mode):
        tr = list(play(mode, ScenarioProvider.fixed(SQUARE), Opponent("hull-vertex-cycle"), 0))
        assert _written(mode, tr) == self._dumped(mode, tr) == \
            f'{{"mode": "{mode}", "steps": 0, "final_e": ["0", "0"]}}\n'


class TestPinnedTraces:
    """The exact bytes of five 2 000-step games, each fixed on the Fraction
    path that the integer kernels replaced: any change to sampling,
    membership or projection that moves one coordinate changes a digest."""

    def test_uniform_inputs_on_sset3(self):
        (sset3,) = _shipped("sset3")
        tr = list(play("undelayed", ScenarioProvider.fixed(sset3),
                       Opponent("uniform-random-in-hull", seed=11), 2000, seed=3))
        assert _trace_sha256("undelayed", tr) == \
            "d192d81f324a678909d24600c14adc817a13ed94a48ae302f34b33f564998305"

    def test_error_aligned_on_ssprime(self):
        tr = list(play("undelayed", ScenarioProvider.random_choice(_shipped("ssprime"), seed=12),
                       Opponent("error-aligned-vertex", seed=13), 2000, seed=4))
        assert _trace_sha256("undelayed", tr) == \
            "d9a57e94dab193aff6bdf3802ac8885b42a3861b4ecb20f671ed3363dee349f2"

    def test_delayed_random_triangles(self):
        tr = list(play("delayed", ScenarioProvider.random_triangle(1, 1, seed=14),
                       Opponent("uniform-random-in-hull", seed=15), 2000, seed=5))
        assert _trace_sha256("delayed", tr) == \
            "6a095d949ddf6a3d24db3f9e17e1968c9925a4a32cdba689d3159fdca5c90b60"

    def test_uniform_inputs_on_a_convex_set(self):
        (sset3,) = _shipped("sset3")
        fs = Convex(Region.hull_of(corners(sset3)))
        tr = list(play("undelayed", ScenarioProvider.fixed(fs),
                       Opponent("uniform-random-in-hull", seed=16), 2000, seed=6))
        assert _trace_sha256("undelayed", tr) == \
            "7aff3a9fca3093d8a0f0ecb093929c55c9565e92e2a6825508d33530d5b345af"

    def test_vertex_cycle_on_cyclic_ssprime(self):
        tr = list(play("undelayed", ScenarioProvider.cyclic(_shipped("ssprime")),
                       Opponent("hull-vertex-cycle", seed=17), 2000, seed=7))
        assert _trace_sha256("undelayed", tr) == \
            "28239436ab69afeafb99733cf49db3d071de834ff683d701e8f72170d70143c6"


class _StrayOpponent:
    """Plays hull vertices, then a point outside every hull at round 2, each
    as Ratios, the type a game's opponent hands over."""

    seed = None

    def pick(self, fs, error, n, rng):
        return ratios(pt(5, 5)) if n == 2 else vertex_ratios(fs.ring, 0)


@pytest.mark.parametrize("mode", ["undelayed", "delayed"])
def test_run_rejects_an_input_outside_the_hull(mode):
    with pytest.raises(InputOutsideHull, match=r"\(5, 5\) outside hull of unit-square"):
        list(play(mode, ScenarioProvider.fixed(SQUARE), _StrayOpponent(), 5))
