"""Scene files: named inputs for one experiment, parsed exactly.

A scene is a JSON object with five optional sections: `collections` (named
lists of point sets), `regions` (named vertex rings), `triangles` (named
wedge families), `config` (iteration overrides), and `simulations` (named
game declarations).  Coordinates are rational strings such as "1/3" or
"0.5" and parse to exact values.  Each simulation's provider and opponent
are resolved while the scene is parsed, so every name must resolve and a
SimulationSpec holds the objects a game takes.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .dynamics import (
    Convex,
    FeasibleSet,
    Finite,
    MODES,
    NotConvex,
    Opponent,
    PROVIDER_MODES,
    STRATEGIES,
    ScenarioProvider,
    TriangleFamily,
    finite_members,
)
from .geometry import (
    GeometryError,
    Point,
    Region,
    parse_scalar,
)
from .operators import MAX_ITER, Collection
from .voronoi import SiteSet


class ParseError(Exception):
    """The text is not a well-formed scene document."""


class ValidationError(Exception):
    """The document parsed but its content is unusable."""

    def __init__(self, message: str, locations: tuple[str, ...] = ()):
        super().__init__(message)
        self.locations = locations


def _fail(kind: str, detail: str, location: str) -> "ValidationError":
    return ValidationError(f"{kind} at {location}: {detail}", (location,))


@dataclass(frozen=True)
class SimulationSpec:
    """A declared game, its provider and opponent resolved in the scene."""

    mode: str
    provider: ScenarioProvider
    opponent: Opponent
    steps: int
    seed: int = 0


@dataclass(frozen=True)
class Scene:
    collections: dict[str, Collection] = field(default_factory=dict)
    regions: dict[str, Region] = field(default_factory=dict)
    triangles: dict[str, TriangleFamily] = field(default_factory=dict)
    max_iter: int = MAX_ITER
    simulations: dict[str, SimulationSpec] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parsing


def _coord(value, location: str) -> Fraction:
    if not isinstance(value, str):
        raise _fail("BadCoordinate", "coordinates must be rational strings",
                    location)
    try:
        return parse_scalar(value)
    except ValueError:
        raise _fail("BadCoordinate", f"cannot parse {value!r}", location) from None


def _point(value, location: str) -> Point:
    if not (isinstance(value, list) and len(value) == 2):
        raise _fail("BadPoint", "a point is a two-element list", location)
    return Point(_coord(value[0], location + "[0]"), _coord(value[1], location + "[1]"))


def _ring(value, location: str) -> list[Point]:
    if not isinstance(value, list):
        raise _fail("BadRing", "expected a list of points", location)
    return [_point(p, f"{location}[{i}]") for i, p in enumerate(value)]


def _site_set(value, location: str, default_id: str) -> SiteSet:
    if not isinstance(value, dict):
        raise _fail("BadMember", "a member is an object with id and points",
                    location)
    unknown = set(value) - {"id", "points"}
    if unknown:
        raise _fail("BadMember", f"unknown keys {sorted(unknown)}", location)
    sid = value.get("id", default_id)
    if not isinstance(sid, str) or not sid:
        raise _fail("BadMember", "id must be a nonempty string", location + ".id")
    points = _ring(value.get("points", []), location + ".points")
    try:
        return SiteSet(tuple(points), id=sid)
    except GeometryError as exc:
        raise _fail(type(exc).__name__, str(exc), location + ".points") from exc


def _collection(value, location: str) -> Collection:
    if not isinstance(value, list) or not value:
        raise _fail("BadCollection", "a collection is a nonempty list of members",
                    location)
    members = [_site_set(m, f"{location}[{i}]", f"S{i + 1}")
               for i, m in enumerate(value)]
    try:
        return Collection(tuple(members))
    except ValueError as exc:
        raise _fail("BadCollection", str(exc), location) from exc


def _region(value, location: str) -> Region:
    ring = _ring(value, location)
    try:
        return Region.from_ring(ring)
    except GeometryError as exc:
        raise _fail(type(exc).__name__, str(exc), location) from exc


def _family(value, location: str) -> TriangleFamily:
    if not isinstance(value, dict) or set(value) - {"h_max", "t"}:
        raise _fail("BadTriangle", "expected an object with h_max and t", location)
    h = _coord(value.get("h_max", "0"), location + ".h_max")
    t = _coord(value.get("t", "1"), location + ".t")
    try:
        return TriangleFamily(h, t)
    except ValueError as exc:
        raise _fail("BadTriangle", str(exc), location) from exc


def _config(value, location: str) -> int:
    """The config section's max_iter, MAX_ITER when it is absent."""
    if not isinstance(value, dict):
        raise _fail("BadConfig", "config must be an object", location)
    unknown = set(value) - {"max_iter"}
    if unknown:
        raise _fail("BadConfig", f"unknown keys {sorted(unknown)}", location)
    raw = value.get("max_iter", MAX_ITER)
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise _fail("BadConfig", "max_iter must be an integer", location + ".max_iter")
    if raw < 1:
        raise _fail("BadConfig", "max_iter must be at least 1", location)
    return raw


def _int_field(value, location: str, *, minimum: int | None = None,
               optional: bool = False) -> int | None:
    if value is None and optional:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail("BadValue", "expected an integer", location)
    if minimum is not None and value < minimum:
        raise _fail("BadValue", f"must be at least {minimum}", location)
    return value


def _provider(value, location: str, scene: Scene) -> ScenarioProvider:
    """The provider an object declares, its names resolved in scene."""
    if not isinstance(value, dict):
        raise _fail("BadProvider", "provider must be an object", location)
    allowed = {"mode", "collection", "member", "region", "triangle", "seed"}
    unknown = set(value) - allowed
    if unknown:
        raise _fail("BadProvider", f"unknown keys {sorted(unknown)}", location)
    mode = value.get("mode")
    if mode not in PROVIDER_MODES:
        raise _fail("BadProvider", f"mode must be one of {PROVIDER_MODES}",
                    location + ".mode")
    for key in ("collection", "member", "region", "triangle"):
        v = value.get(key)
        if v is not None and not isinstance(v, str):
            raise _fail("BadProvider", f"{key} must be a string",
                        f"{location}.{key}")
    seed = _int_field(value.get("seed"), location + ".seed", optional=True)
    return _resolve_provider(scene, value, seed, location)


def _opponent(value, location: str) -> Opponent:
    if not isinstance(value, dict):
        raise _fail("BadOpponent", "opponent must be an object", location)
    unknown = set(value) - {"strategy", "seed"}
    if unknown:
        raise _fail("BadOpponent", f"unknown keys {sorted(unknown)}", location)
    strategy = value.get("strategy")
    if strategy not in STRATEGIES:
        raise _fail("BadOpponent", f"strategy must be one of {STRATEGIES}",
                    location + ".strategy")
    return Opponent(strategy, seed=_int_field(value.get("seed"),
                                              location + ".seed", optional=True))


def _simulation(value, location: str, scene: Scene) -> SimulationSpec:
    if not isinstance(value, dict):
        raise _fail("BadSimulation", "simulation must be an object", location)
    allowed = {"mode", "provider", "opponent", "steps", "seed"}
    unknown = set(value) - allowed
    if unknown:
        raise _fail("BadSimulation", f"unknown keys {sorted(unknown)}", location)
    mode = value.get("mode")
    if mode not in MODES:
        raise _fail("BadSimulation", f"mode must be one of {MODES}",
                    location + ".mode")
    steps = _int_field(value.get("steps", 0), location + ".steps", minimum=0)
    seed = _int_field(value.get("seed", 0), location + ".seed")
    return SimulationSpec(
        mode=mode,
        provider=_provider(value.get("provider"), location + ".provider", scene),
        opponent=_opponent(value.get("opponent"), location + ".opponent"),
        steps=steps,
        seed=seed,
    )


def _named_section(data, key: str, loader) -> dict:
    raw = data.get(key, {})
    if not isinstance(raw, dict):
        raise _fail("BadSection", f"{key} must be an object of named entries", key)
    out = {}
    for name, value in raw.items():
        if not isinstance(name, str) or not name:
            raise _fail("BadSection", "entry names must be nonempty strings", key)
        out[name] = loader(value, f"{key}.{name}")
    return out


def _resolve_provider(scene: Scene, decl: dict, seed: int | None,
                      location: str) -> ScenarioProvider:
    """The provider that the checked provider object decl declares, each
    name it gives looked up in scene."""
    mode, collection = decl["mode"], decl.get("collection")
    if mode == "random-triangle":
        triangle = decl.get("triangle")
        if triangle is None or triangle not in scene.triangles:
            raise _fail("UnresolvedName", f"no triangle family {triangle!r}",
                        location)
        fam = scene.triangles[triangle]
        return ScenarioProvider.random_triangle(fam.h_max, fam.t, seed=seed)
    if mode == "fixed":
        return ScenarioProvider.fixed(_fixed_set(scene, decl, location))
    if collection is None:
        raise _fail("UnresolvedName", f"{mode} provider needs a collection",
                    location)
    coll = scene.collections.get(collection)
    if coll is None:
        raise _fail("UnresolvedName", f"no collection {collection!r}", location)
    members = finite_members(coll)
    if mode == "cyclic":
        return ScenarioProvider.cyclic(members)
    return ScenarioProvider.random_choice(members, seed=seed)


def _fixed_set(scene: Scene, decl: dict, location: str) -> FeasibleSet:
    collection, member = decl.get("collection"), decl.get("member")
    region, triangle = decl.get("region"), decl.get("triangle")
    if [collection, region, triangle].count(None) != 2:
        raise _fail("BadProvider",
                    "fixed provider needs exactly one of collection/region/triangle",
                    location)
    if region is not None:
        polygon = scene.regions.get(region)
        if polygon is None:
            raise _fail("UnresolvedName", f"no region {region!r}", location)
        try:
            return Convex(polygon, label=region)
        except NotConvex as exc:
            raise _fail("BadProvider", "a fixed feasible region must be convex",
                        location) from exc
    if triangle is not None:
        fam = scene.triangles.get(triangle)
        if fam is None:
            raise _fail("UnresolvedName", f"no triangle family {triangle!r}",
                        location)
        return fam.envelope
    coll = scene.collections.get(collection)
    if coll is None:
        raise _fail("UnresolvedName", f"no collection {collection!r}", location)
    members = {S.id: S for S in coll}
    if member is not None:
        if member not in members:
            raise _fail("UnresolvedName",
                        f"no member {member!r} in {collection!r}", location)
        return Finite(members[member])
    if len(coll) != 1:
        raise _fail("BadProvider",
                    "fixed provider over a multi-member collection needs a member",
                    location)
    return Finite(coll.members[0])


def parse_scene(text: str) -> Scene:
    """Exact scene from JSON text; every name must resolve."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("scene must be a JSON object")
    known = {"collections", "regions", "triangles", "config", "simulations"}
    unknown = set(data) - known
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    scene = Scene(
        collections=_named_section(data, "collections", _collection),
        regions=_named_section(data, "regions", _region),
        triangles=_named_section(data, "triangles", _family),
        max_iter=_config(data.get("config", {}), "config"),
    )
    return dataclasses.replace(scene, simulations=_named_section(
        data, "simulations", lambda value, location: _simulation(value, location, scene)))


def load_scene(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read())
