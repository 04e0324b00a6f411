"""SVG output: structure, layer counts, determinism."""
from __future__ import annotations

import re

from errdiff.dynamics import Finite, Opponent, ScenarioProvider, play
from errdiff.geometry import Region, point_of, pt, sub_ratios
from errdiff.render import render_svg
from errdiff.voronoi import SiteSet

SQUARE4 = SiteSet((pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)), id="sq4")
SQUARE5 = SiteSet(SQUARE4.sites + (pt("1/2", "1/2"),), id="sq5")


def polyline_points(svg: str) -> list[str]:
    m = re.search(r'<polyline points="([^"]+)"', svg)
    assert m is not None
    return m.group(1).split()


def error_path(mode, provider, opponent, steps, seed):
    """A played game's error points, as `errdiff render` reads them back
    from its trace: the error before each round, then the one left after
    the last."""
    rounds = list(play(mode, provider, opponent, steps, seed))
    last = rounds[-1]
    return [point_of(s.qe) for s in rounds] + [point_of(sub_ratios(last.qz, last.qy))]


class TestStructure:
    def test_empty_scene_is_valid(self):
        svg = render_svg()
        assert svg.startswith("<svg ")
        assert 'viewBox="0 0 720 720"' in svg
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline" not in svg and "<circle" not in svg

    def test_sites_render_as_dots(self):
        svg = render_svg(site_sets=[SQUARE5])
        assert svg.count("<circle") == len(SQUARE5.sites)

    def test_hull_outline_present(self):
        # no inner site, so no cell: the hull is the one polygon
        svg = render_svg(site_sets=[SQUARE4])
        assert svg.count("<polygon") == 1

    def test_bounded_cell_drawn_solid_and_dashed(self):
        svg = render_svg(site_sets=[SQUARE5])
        # one inner site, so one solid cell ring plus one dashed translate
        assert svg.count('stroke-dasharray="4 3"') == 1
        assert svg.count("<polygon") == 3

    def test_invariant_set_shaded(self):
        Q = Region.from_ring(
            [pt("-1/2", "-1/2"), pt("1/2", "-1/2"),
             pt("1/2", "1/2"), pt("-1/2", "1/2")])
        svg = render_svg(site_sets=[SQUARE5], invariant=Q)
        assert re.search(r'<polygon[^>]+fill="#[0-9a-f]{6}" fill-opacity', svg)

    def test_coordinates_use_twelve_significant_digits(self):
        svg = render_svg(traces=[[pt("1/3", 0), pt(1, 1)]])
        xs = polyline_points(svg)[0]
        mantissa = xs.split(",")[0].replace(".", "").lstrip("0")
        assert len(mantissa) <= 12


class TestTraces:
    def test_hundred_steps_make_hundred_segments(self):
        provider = ScenarioProvider.fixed(Finite(SQUARE5))
        opponent = Opponent("uniform-random-in-hull", seed=3)
        trace = error_path("undelayed", provider, opponent, steps=100, seed=1)
        svg = render_svg(site_sets=[SQUARE5], traces=[trace])
        assert len(polyline_points(svg)) == 101

    def test_point_path_draws_like_a_trace(self):
        path = [pt(0, 0), pt(1, 0), pt(1, 1)]
        svg = render_svg(traces=[path])
        assert len(polyline_points(svg)) == 3

    def test_single_point_path_draws_nothing(self):
        svg = render_svg(traces=[[pt(0, 0)]])
        assert "<polyline" not in svg


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self):
        provider = ScenarioProvider.fixed(Finite(SQUARE5))
        opponent = Opponent("uniform-random-in-hull", seed=5)
        a = error_path("undelayed", provider, opponent, steps=50, seed=2)
        b = error_path("undelayed", provider, opponent, steps=50, seed=2)
        Q = Region.from_ring(
            [pt("-1/2", "-1/2"), pt("1/2", "-1/2"),
             pt("1/2", "1/2"), pt("-1/2", "1/2")])
        svg_a = render_svg(site_sets=[SQUARE5], invariant=Q, traces=[a])
        svg_b = render_svg(site_sets=[SQUARE5], invariant=Q, traces=[b])
        assert svg_a == svg_b
