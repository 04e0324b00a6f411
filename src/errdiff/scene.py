"""Scene files: named inputs for one experiment, parsed exactly.

A scene is a JSON object with five optional sections: `collections` (named
lists of point sets), `regions` (named vertex rings), `triangles` (named
wedge families), `config` (iteration overrides), and `simulations` (named
game declarations).  Coordinates are rational strings such as "1/3" or
"0.5" and parse to exact values.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .dynamics import (
    Convex,
    FeasibleSet,
    Finite,
    MODES,
    Opponent,
    PROVIDER_MODES,
    STRATEGIES,
    ScenarioProvider,
    TriangleFamily,
    finite_members,
)
from .geometry import (
    ConvexPolygon,
    GeometryError,
    Point,
    Region,
    is_convex_ring,
    parse_scalar,
    pt,
)
from .operators import Collection, IterationConfig
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
class ProviderSpec:
    """Declarative provider: names that resolve inside the scene."""

    mode: str
    collection: str | None = None
    member: str | None = None
    region: str | None = None
    triangle: str | None = None
    seed: int | None = None


@dataclass(frozen=True)
class OpponentSpec:
    strategy: str
    seed: int | None = None


@dataclass(frozen=True)
class SimulationSpec:
    mode: str
    provider: ProviderSpec
    opponent: OpponentSpec
    steps: int
    seed: int = 0


@dataclass(frozen=True)
class Scene:
    collections: dict[str, Collection] = field(default_factory=dict)
    regions: dict[str, Region] = field(default_factory=dict)
    triangles: dict[str, TriangleFamily] = field(default_factory=dict)
    config: IterationConfig = field(default_factory=IterationConfig)
    simulations: dict[str, SimulationSpec] = field(default_factory=dict)

    def resolve_provider(self, spec: ProviderSpec) -> ScenarioProvider:
        return _resolve_provider(self, spec, "simulations")

    def resolve_opponent(self, spec: OpponentSpec) -> Opponent:
        return Opponent(spec.strategy, seed=spec.seed)


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
    return pt(_coord(value[0], location + "[0]"), _coord(value[1], location + "[1]"))


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


def _config(value, location: str) -> IterationConfig:
    if not isinstance(value, dict):
        raise _fail("BadConfig", "config must be an object", location)
    unknown = set(value) - {"max_iter"}
    if unknown:
        raise _fail("BadConfig", f"unknown keys {sorted(unknown)}", location)
    if "max_iter" not in value:
        return IterationConfig()
    raw = value["max_iter"]
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise _fail("BadConfig", "max_iter must be an integer", location + ".max_iter")
    try:
        return IterationConfig(max_iter=raw)
    except ValueError as exc:
        raise _fail("BadConfig", str(exc), location) from exc


def _int_field(value, location: str, *, minimum: int | None = None,
               optional: bool = False) -> int | None:
    if value is None and optional:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail("BadValue", "expected an integer", location)
    if minimum is not None and value < minimum:
        raise _fail("BadValue", f"must be at least {minimum}", location)
    return value


def _provider_spec(value, location: str) -> ProviderSpec:
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
    return ProviderSpec(
        mode=mode,
        collection=value.get("collection"),
        member=value.get("member"),
        region=value.get("region"),
        triangle=value.get("triangle"),
        seed=_int_field(value.get("seed"), location + ".seed", optional=True),
    )


def _opponent_spec(value, location: str) -> OpponentSpec:
    if not isinstance(value, dict):
        raise _fail("BadOpponent", "opponent must be an object", location)
    unknown = set(value) - {"strategy", "seed"}
    if unknown:
        raise _fail("BadOpponent", f"unknown keys {sorted(unknown)}", location)
    strategy = value.get("strategy")
    if strategy not in STRATEGIES:
        raise _fail("BadOpponent", f"strategy must be one of {STRATEGIES}",
                    location + ".strategy")
    return OpponentSpec(strategy,
                        seed=_int_field(value.get("seed"),
                                        location + ".seed", optional=True))


def _simulation(value, location: str) -> SimulationSpec:
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
        provider=_provider_spec(value.get("provider"), location + ".provider"),
        opponent=_opponent_spec(value.get("opponent"), location + ".opponent"),
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


def _resolve_provider(scene: Scene, spec: ProviderSpec,
                      location: str) -> ScenarioProvider:
    def collection_members() -> tuple[Finite, ...]:
        if spec.collection is None:
            raise _fail("UnresolvedName", f"{spec.mode} provider needs a collection",
                        location)
        coll = scene.collections.get(spec.collection)
        if coll is None:
            raise _fail("UnresolvedName", f"no collection {spec.collection!r}",
                        location)
        return finite_members(coll)

    if spec.mode == "random-triangle":
        if spec.triangle is None or spec.triangle not in scene.triangles:
            raise _fail("UnresolvedName", f"no triangle family {spec.triangle!r}",
                        location)
        fam = scene.triangles[spec.triangle]
        return ScenarioProvider.random_triangle(fam.h_max, fam.t, seed=spec.seed)
    if spec.mode == "fixed":
        fs = _fixed_set(scene, spec, location)
        return ScenarioProvider.fixed(fs)
    members = collection_members()
    if spec.mode == "cyclic":
        return ScenarioProvider.cyclic(members)
    return ScenarioProvider.random_choice(members, seed=spec.seed)


def _fixed_set(scene: Scene, spec: ProviderSpec, location: str) -> FeasibleSet:
    given = [k for k in ("collection", "region", "triangle")
             if getattr(spec, k) is not None]
    if len(given) != 1:
        raise _fail("BadProvider",
                    "fixed provider needs exactly one of collection/region/triangle",
                    location)
    if spec.region is not None:
        region = scene.regions.get(spec.region)
        if region is None:
            raise _fail("UnresolvedName", f"no region {spec.region!r}", location)
        if not is_convex_ring(region._scaled):
            raise _fail("BadProvider", "a fixed feasible region must be convex",
                        location)
        return Convex(ConvexPolygon(*region._scaled), label=spec.region)
    if spec.triangle is not None:
        fam = scene.triangles.get(spec.triangle)
        if fam is None:
            raise _fail("UnresolvedName", f"no triangle family {spec.triangle!r}",
                        location)
        return fam.envelope
    coll = scene.collections.get(spec.collection)
    if coll is None:
        raise _fail("UnresolvedName", f"no collection {spec.collection!r}", location)
    members = {S.id: S for S in coll}
    if spec.member is not None:
        if spec.member not in members:
            raise _fail("UnresolvedName",
                        f"no member {spec.member!r} in {spec.collection!r}", location)
        return Finite(members[spec.member])
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
        config=_config(data.get("config", {}), "config"),
        simulations=_named_section(data, "simulations", _simulation),
    )
    for name, sim in scene.simulations.items():
        _resolve_provider(scene, sim.provider, f"simulations.{name}.provider")
    return scene


def load_scene(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read())
