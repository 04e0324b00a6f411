"""Scene grammar: exact parsing, located errors, shipped scenes."""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from errdiff.dynamics import Convex, Finite, Opponent, ScenarioProvider, Triangle
from errdiff.scene import ParseError, ValidationError, parse_scene

SCENES_DIR = Path(__file__).resolve().parent.parent / "scenes"

MINIMAL = {
    "collections": {
        "c": [{"id": "S", "points": [["0", "0"], ["1", "0"], ["0", "1"]]}]
    }
}


def scene_text(**overrides) -> str:
    data = dict(MINIMAL)
    data.update(overrides)
    return json.dumps(data)


def sim(provider, *, mode="undelayed", steps=5,
        strategy="uniform-random-in-hull"):
    return {
        "s": {
            "mode": mode,
            "provider": provider,
            "opponent": {"strategy": strategy},
            "steps": steps,
        }
    }


class TestCoordinates:
    def test_fraction_string(self):
        scene = parse_scene(scene_text(collections={
            "c": [{"points": [["1/3", "0"], ["1", "0"], ["0", "1"]]}]}))
        site = scene.collections["c"].members[0].sites[0]
        assert site.x == Fraction(1, 3)

    def test_decimal_string_is_exact(self):
        scene = parse_scene(scene_text(collections={
            "c": [{"points": [["0.5", "0"], ["1", "0"], ["0", "1"]]}]}))
        assert scene.collections["c"].members[0].sites[0].x == Fraction(1, 2)

    def test_bare_number_rejected(self):
        # exactness guard: JSON floats never enter the arithmetic
        with pytest.raises(ValidationError, match="BadCoordinate"):
            parse_scene(scene_text(collections={
                "c": [{"points": [[0.5, "0"], ["1", "0"], ["0", "1"]]}]}))

    def test_digit_separator_is_a_bad_coordinate(self):
        # on every supported Python, not only where Fraction refuses "1_0"
        with pytest.raises(ValidationError, match="BadCoordinate") as exc:
            parse_scene(scene_text(collections={
                "c": [{"points": [["0", "0"], ["1_0", "0"], ["0", "1"]]}]}))
        assert exc.value.locations == ("collections.c[0].points[1][0]",)

    def test_garbage_coordinate_carries_location(self):
        with pytest.raises(ValidationError) as exc:
            parse_scene(scene_text(collections={
                "c": [{"points": [["0", "0"], ["1", "nope"], ["0", "1"]]}]}))
        assert exc.value.locations == ("collections.c[0].points[1][1]",)


class TestValidation:
    def test_duplicate_sites_spelled_differently(self):
        # "1/2", "0.5" and "2/4" are one site: the first repeat is named
        with pytest.raises(ValidationError) as exc:
            parse_scene(scene_text(collections={"c": [{"points": [
                ["1/2", "1"], ["0", "0"], ["0.5", "1"], ["2/4", "1"]]}]}))
        assert str(exc.value) == ("CoincidentSites at collections.c[0].points: "
                                  "duplicate site Point(x=Fraction(1, 2), y=Fraction(1, 1))")

    def test_two_point_member_is_degenerate(self):
        with pytest.raises(ValidationError, match="DegenerateHull") as exc:
            parse_scene(scene_text(collections={
                "c": [{"points": [["0", "0"], ["1", "1"]]}]}))
        assert exc.value.locations == ("collections.c[0].points",)

    def test_duplicate_point_carries_location(self):
        with pytest.raises(ValidationError, match="CoincidentSites") as exc:
            parse_scene(scene_text(collections={
                "c": [{"points": [["0", "0"], ["1", "0"], ["0", "1"],
                                  ["0", "0"]]}]}))
        assert "collections.c[0].points" in exc.value.locations

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_scene("{not json")

    def test_non_object_top_level(self):
        with pytest.raises(ParseError):
            parse_scene("[1, 2]")

    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_scene(scene_text(extras={}))

    def test_unknown_member_key(self):
        with pytest.raises(ValidationError, match="BadMember"):
            parse_scene(scene_text(collections={
                "c": [{"points": [["0", "0"], ["1", "0"], ["0", "1"]],
                       "color": "red"}]}))

    def test_empty_collection(self):
        with pytest.raises(ValidationError, match="BadCollection"):
            parse_scene(scene_text(collections={"c": []}))

    def test_config_rejects_unknown_key(self):
        with pytest.raises(ValidationError, match="BadConfig"):
            parse_scene(scene_text(config={"tolerance": 3}))

    def test_config_rejects_boolean_k(self):
        with pytest.raises(ValidationError, match="BadConfig"):
            parse_scene(scene_text(config={"k": True}))

    def test_negative_steps(self):
        with pytest.raises(ValidationError, match="BadValue") as exc:
            parse_scene(scene_text(simulations=sim(
                {"mode": "fixed", "collection": "c"}, steps=-1)))
        assert exc.value.locations == ("simulations.s.steps",)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="BadSimulation"):
            parse_scene(scene_text(simulations=sim(
                {"mode": "fixed", "collection": "c"}, mode="warp")))

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError, match="BadOpponent"):
            parse_scene(scene_text(simulations=sim(
                {"mode": "fixed", "collection": "c"}, strategy="psychic")))

    def test_dangling_collection_name(self):
        with pytest.raises(ValidationError, match="UnresolvedName") as exc:
            parse_scene(scene_text(simulations=sim(
                {"mode": "fixed", "collection": "ghost"})))
        assert exc.value.locations == ("simulations.s.provider",)

    def test_dangling_triangle_name(self):
        with pytest.raises(ValidationError, match="UnresolvedName"):
            parse_scene(scene_text(simulations=sim(
                {"mode": "random-triangle", "triangle": "ghost"})))


class TestResolution:
    def test_default_member_ids(self):
        scene = parse_scene(scene_text(collections={"c": [
            {"points": [["0", "0"], ["1", "0"], ["0", "1"]]},
            {"points": [["0", "0"], ["2", "0"], ["0", "2"]]},
        ]}))
        assert [S.id for S in scene.collections["c"]] == ["S1", "S2"]

    def test_fixed_singleton_collection(self):
        scene = parse_scene(scene_text(simulations=sim(
            {"mode": "fixed", "collection": "c"})))
        provider = scene.simulations["s"].provider
        fs = provider.pick(0, None)
        assert isinstance(fs, Finite) and fs.set_id == "S"

    def test_fixed_multi_member_needs_member(self):
        text = scene_text(
            collections={"c": [
                {"id": "a", "points": [["0", "0"], ["1", "0"], ["0", "1"]]},
                {"id": "b", "points": [["0", "0"], ["2", "0"], ["0", "2"]]},
            ]},
            simulations=sim({"mode": "fixed", "collection": "c"}))
        with pytest.raises(ValidationError, match="needs a member"):
            parse_scene(text)

    def test_fixed_member_lookup(self):
        scene = parse_scene(scene_text(
            collections={"c": [
                {"id": "a", "points": [["0", "0"], ["1", "0"], ["0", "1"]]},
                {"id": "b", "points": [["0", "0"], ["2", "0"], ["0", "2"]]},
            ]},
            simulations=sim({"mode": "fixed", "collection": "c",
                             "member": "b"})))
        fs = scene.simulations["s"].provider.pick(0, None)
        assert fs.set_id == "b"

    def test_fixed_region_must_be_convex(self):
        notch = [["0", "0"], ["4", "0"], ["4", "4"], ["2", "1"], ["0", "4"]]
        text = scene_text(
            regions={"r": notch},
            simulations=sim({"mode": "fixed", "region": "r"}))
        with pytest.raises(ValidationError, match="convex"):
            parse_scene(text)

    def test_fixed_convex_region(self):
        scene = parse_scene(scene_text(
            regions={"r": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]]},
            simulations=sim({"mode": "fixed", "region": "r"})))
        fs = scene.simulations["s"].provider.pick(0, None)
        assert isinstance(fs, Convex)
        assert fs.polygon is scene.regions["r"]

    def test_fixed_non_convex_region_is_a_bad_provider(self):
        notch = [["0", "0"], ["4", "0"], ["4", "4"], ["2", "1"], ["0", "4"]]
        with pytest.raises(ValidationError, match="BadProvider") as exc:
            parse_scene(scene_text(regions={"r": notch},
                                   simulations=sim({"mode": "fixed", "region": "r"})))
        assert exc.value.locations == ("simulations.s.provider",)

    def test_fixed_triangle_envelope(self):
        scene = parse_scene(scene_text(
            triangles={"tri": {"h_max": "2", "t": "1/2"}},
            simulations=sim({"mode": "fixed", "triangle": "tri"})))
        fs = scene.simulations["s"].provider.pick(0, None)
        assert isinstance(fs, Triangle)
        assert fs.h == 2 and fs.t == Fraction(1, 2)

    def test_random_triangle_provider(self):
        scene = parse_scene(scene_text(
            triangles={"tri": {"h_max": "1", "t": "1"}},
            simulations=sim({"mode": "random-triangle", "triangle": "tri",
                             "seed": 3})))
        provider = scene.simulations["s"].provider
        assert provider.mode == "random-triangle"


class TestConfig:
    def test_overrides_are_exact(self):
        assert parse_scene(scene_text(config={"max_iter": 40})).max_iter == 40

    def test_defaults_when_absent(self):
        assert parse_scene(scene_text()).max_iter == 1000

    @pytest.mark.parametrize("key,value", [("epsilon", "1/100"), ("k", 5), ("r", 2),
                                           ("s", 3), ("rounding", False)])
    def test_rounding_keys_are_unknown(self, key, value):
        with pytest.raises(ValidationError, match="BadConfig.*unknown keys"):
            parse_scene(scene_text(config={key: value, "max_iter": 40}))

    @pytest.mark.parametrize("value", [True, "40", 0])
    def test_bad_max_iter(self, value):
        with pytest.raises(ValidationError, match="BadConfig"):
            parse_scene(scene_text(config={"max_iter": value}))


class TestRoundTrip:
    @pytest.mark.parametrize("path", sorted(SCENES_DIR.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_shipped_scenes(self, path):
        scene = parse_scene(path.read_text())
        for spec in scene.simulations.values():
            assert isinstance(spec.provider, ScenarioProvider)
            assert isinstance(spec.opponent, Opponent)
