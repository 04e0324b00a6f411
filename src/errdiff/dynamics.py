"""Tracking games against a nearest-point quantizer, with exact bookkeeping.

Each round an adversary picks an input x_n from the hull of the feasible
set revealed for that round; the player answers with a feasible output and
carries the shortfall forward as an accumulated error:

    y_n = q(e_n + x_n),    e_{n+1} = e_n + x_n - y_n,    e_0 = 0.

In the delayed variant the player must quantize the running total
z_n = e_n + x_n before the next input is known, so the output is based on
the set the opponent has already seen.  All coordinates are rational and
every trajectory claim (containment, greedy optimality, bounds) is decided
exactly on the logged trace.

The per-round work runs on integers.  Every feasible set caches its hull
ring once, as hull_ring: the vertices in sampling order with their
(m, xs, ys) over one common denominator (Finite and Convex reuse their
polygon's _scaled; Triangle writes T(h, t) = h*T(1, t) down from the
numerators and denominators of h and t).  sample_hull_point draws its fan
triangle and its point on that ring, the error-aligned opponent compares
integer dot products on it, Finite and Convex sets test membership on
their polygon's integer ring (point_in_ring), Triangle tests membership by
cross-multiplying and projects through project_convex_ring on its ring,
and Finite projects through voronoi.project.  Only the points a round
returns are built as Fractions.

play yields a game one TraceStep at a time, and run collects those steps
into a Trace.  `errdiff simulate` writes each step's trace line as play
yields it (cli._write_trace), so no game is held whole; Trace.records gives
the same lines as dicts for json.dumps.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Iterator, Sequence

from .geometry import (
    ConvexPolygon,
    GeometryError,
    ORIGIN,
    Point,
    Region,
    Scalar,
    Scaled,
    dist_sq,
    project_convex,
    project_convex_ring,
    scalar_str,
)
from .booleans import subset
from .operators import Collection
from .voronoi import SiteSet, project

MODES = ("undelayed", "delayed")
PROVIDER_MODES = ("fixed", "cyclic", "random-from-collection", "random-triangle")
STRATEGIES = ("uniform-random-in-hull", "hull-vertex-cycle", "error-aligned-vertex")


class InputOutsideHull(GeometryError):
    """An input point falls outside the hull it must be drawn from."""


# a hull's vertices, in the order sample_hull_point fans them, and the same
# ring over one common denominator
HullRing = tuple[tuple[Point, ...], Scaled]


def _fmt(p: Point) -> str:
    return f"({scalar_str(p.x)}, {scalar_str(p.y)})"


# ---------------------------------------------------------------------------
# feasible sets


@dataclass(frozen=True)
class Finite:
    """Feasible set given by finitely many sites; outputs snap to a site."""

    sites: SiteSet

    @property
    def set_id(self) -> str:
        return self.sites.id or "sites"

    def hull_vertices(self) -> tuple[Point, ...]:
        return self.sites.hull.vertices

    @cached_property
    def hull_ring(self) -> HullRing:
        hull = self.sites.hull
        return hull.vertices, hull._scaled

    def contains(self, p: Point) -> bool:
        return self.sites.hull.contains_point(p)

    def project(self, p: Point) -> Point:
        return project(self.sites, p)


@dataclass(frozen=True)
class Convex:
    """Feasible set filling a convex polygon; outputs are nearest points."""

    polygon: ConvexPolygon
    label: str = "convex"

    @property
    def set_id(self) -> str:
        return self.label

    def hull_vertices(self) -> tuple[Point, ...]:
        return self.polygon.vertices

    @cached_property
    def hull_ring(self) -> HullRing:
        return self.polygon.vertices, self.polygon._scaled

    def contains(self, p: Point) -> bool:
        return self.polygon.contains_point(p)

    def project(self, p: Point) -> Point:
        return project_convex(self.polygon, p)


@dataclass(frozen=True)
class Triangle:
    """The symmetric wedge slice T(h, t) = {(x, y): 0 <= y <= h, |x| <= t*y}.

    h is the height, t the half-width per unit height; both stay rational
    so the corners are exact.  h = 0 degenerates to the origin alone.
    """

    h: Scalar
    t: Scalar

    def __post_init__(self):
        object.__setattr__(self, "h", Fraction(self.h))
        object.__setattr__(self, "t", Fraction(self.t))
        if self.h < 0:
            raise ValueError("triangle height must be nonnegative")
        if self.t <= 0:
            raise ValueError("triangle slope must be positive")

    @property
    def set_id(self) -> str:
        return f"T({scalar_str(self.h)},{scalar_str(self.t)})"

    def hull_vertices(self) -> tuple[Point, ...]:
        return self.hull_ring[0]

    @cached_property
    def hull_ring(self) -> HullRing:
        """T(h, t) = h*T(1, t): over hd*td the corners (+-t*h, h) are
        (+-tn*hn, td*hn), and one gcd brings that to the lcm of their
        reduced denominators, as over_common_denominator gives it."""
        if self.h == 0:
            return (ORIGIN,), (1, [0], [0])
        hn, hd = self.h.numerator, self.h.denominator
        tn, td = self.t.numerator, self.t.denominator
        x, y, m = tn * hn, td * hn, hd * td
        g = gcd(m, x, y)
        x, y, m = x // g, y // g, m // g
        w = Fraction(x, m)
        return (ORIGIN, Point(w, self.h), Point(-w, self.h)), (m, [0, x, -x], [0, y, y])

    def contains(self, p: Point) -> bool:
        """0 <= y <= h and |x| <= t*y, cross-multiplied."""
        xn, xd, yn, yd = p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
        h, t = self.h, self.t
        return (0 <= yn and yn * h.denominator <= h.numerator * yd
                and abs(xn) * yd * t.denominator <= t.numerator * yn * xd)

    def project(self, p: Point) -> Point:
        if self.h == 0:
            return ORIGIN
        # the ring ORIGIN, (w, h), (-w, h) runs CCW, and the nearest point of
        # a convex set is unique, so the edge order cannot change it
        return project_convex_ring(*self.hull_ring, p)


FeasibleSet = Finite | Convex | Triangle


@dataclass(frozen=True)
class TriangleFamily:
    """All wedges T(h, t) with 0 <= h <= h_max and a common slope t."""

    h_max: Scalar
    t: Scalar

    def __post_init__(self):
        object.__setattr__(self, "h_max", Fraction(self.h_max))
        object.__setattr__(self, "t", Fraction(self.t))
        if self.h_max < 0:
            raise ValueError("family height must be nonnegative")
        if self.t <= 0:
            raise ValueError("family slope must be positive")

    def member(self, h: Scalar) -> Triangle:
        h = Fraction(h)
        if not 0 <= h <= self.h_max:
            raise ValueError("height outside the family range")
        return Triangle(h, self.t)

    @property
    def envelope(self) -> Triangle:
        return Triangle(self.h_max, self.t)


def triangle_bound(h_max: Scalar, t: Scalar) -> Scalar:
    """Squared diameter of T(h_max, t): the longer of a leg and the base."""
    h = Fraction(h_max)
    t = Fraction(t)
    leg_sq = h * h * (1 + t * t)
    base_sq = (2 * h * t) ** 2
    return max(leg_sq, base_sq)


def finite_members(collection: Collection) -> tuple[Finite, ...]:
    return tuple(Finite(S) for S in collection)


# ---------------------------------------------------------------------------
# scenario providers and opponents


@dataclass(frozen=True)
class ScenarioProvider:
    """Deterministic source of the feasible set revealed at each round."""

    mode: str
    sets: tuple[FeasibleSet, ...] = ()
    family: TriangleFamily | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in PROVIDER_MODES:
            raise ValueError(f"unknown provider mode {self.mode!r}")
        object.__setattr__(self, "sets", tuple(self.sets))
        if self.mode == "random-triangle":
            if self.family is None:
                raise ValueError("random-triangle provider needs a family")
        elif not self.sets:
            raise ValueError(f"{self.mode} provider needs at least one set")

    @classmethod
    def fixed(cls, fs: FeasibleSet) -> "ScenarioProvider":
        return cls("fixed", (fs,))

    @classmethod
    def cyclic(cls, sets: Sequence[FeasibleSet]) -> "ScenarioProvider":
        return cls("cyclic", tuple(sets))

    @classmethod
    def random_choice(cls, sets: Sequence[FeasibleSet],
                      seed: int | None = None) -> "ScenarioProvider":
        return cls("random-from-collection", tuple(sets), seed=seed)

    @classmethod
    def random_triangle(cls, h_max: Scalar, t: Scalar,
                        seed: int | None = None) -> "ScenarioProvider":
        return cls("random-triangle", family=TriangleFamily(h_max, t), seed=seed)

    def pick(self, n: int, rng: random.Random) -> FeasibleSet:
        if self.mode == "fixed":
            return self.sets[0]
        if self.mode == "cyclic":
            return self.sets[n % len(self.sets)]
        if self.mode == "random-from-collection":
            return self.sets[rng.randrange(len(self.sets))]
        fam = self.family
        h = Fraction(rng.random()) * fam.h_max
        return Triangle(h, fam.t)


def sample_hull_point(verts: Sequence[Point], scaled: Scaled,
                      rng: random.Random) -> Point:
    """Uniform point of a convex hull, exact once the float draws are fixed.

    verts is the hull ring and scaled the same ring over its common
    denominator, (m, xs, ys) as over_common_denominator gives it.  Three
    draws, in order: one picks a fan triangle (a, b, c) around the first
    vertex with probability proportional to its area, two give the point
    a + u (b - a) + v (c - a), reflected when u + v > 1.  A draw f enters
    as f.as_integer_ratio(), exactly Fraction(f); the weights and the point
    are integers over that common denominator.
    """
    if len(verts) == 1:
        return verts[0]
    m, xs, ys = scaled
    ax, ay = xs[0], ys[0]
    weights = [(xs[i] - ax) * (ys[i + 1] - ay) - (ys[i] - ay) * (xs[i + 1] - ax)
               for i in range(1, len(verts) - 1)]
    rn, rd = rng.random().as_integer_ratio()
    r = rn * sum(weights)
    b = len(verts) - 2
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
    return Point(
        Fraction(ax * ud * vd + (xs[b] - ax) * un * vd + (xs[b + 1] - ax) * vn * ud, den),
        Fraction(ay * ud * vd + (ys[b] - ay) * un * vd + (ys[b + 1] - ay) * vn * ud, den))


@dataclass(frozen=True)
class Opponent:
    """Input generator; every pick lies in the hull it is handed."""

    strategy: str
    seed: int | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown opponent strategy {self.strategy!r}")

    def pick(self, fs: FeasibleSet, error: Point, n: int,
             rng: random.Random) -> Point:
        verts, scaled = fs.hull_ring
        if self.strategy == "hull-vertex-cycle":
            return verts[n % len(verts)]
        if self.strategy == "error-aligned-vertex":
            # v . error times a positive integer, for every vertex v
            _, xs, ys = scaled
            ex, ey = error.x, error.y
            a, b = ex.numerator * ey.denominator, ey.numerator * ex.denominator
            best, best_dot = verts[0], xs[0] * a + ys[0] * b
            for v, x, y in zip(verts[1:], xs[1:], ys[1:]):
                d = x * a + y * b
                if d > best_dot or (d == best_dot and v.key() < best.key()):
                    best, best_dot = v, d
            return best
        return sample_hull_point(verts, scaled, rng)


# ---------------------------------------------------------------------------
# game steps and traces


def _check_input(fs: FeasibleSet, x: Point) -> None:
    if not fs.contains(x):
        raise InputOutsideHull(f"input {_fmt(x)} outside hull of {fs.set_id}")


def step_undelayed(e: Point, fs: FeasibleSet,
                   x: Point) -> tuple[Point, Point, Point]:
    """Quantize e + x on the current set; returns (output, next error,
    target e + x)."""
    _check_input(fs, x)
    target = e + x
    y = fs.project(target)
    return y, target - y, target


def step_delayed(z: Point, fs_now: FeasibleSet,
                 x_next: Point) -> tuple[Point, Point, Point]:
    """Quantize the running total z on the set already revealed.

    Returns (output, next error, next running total); x_next must be drawn
    from the hull of fs_now because the opponent has seen nothing newer.
    """
    _check_input(fs_now, x_next)
    y = fs_now.project(z)
    e_next = z - y
    return y, e_next, e_next + x_next


@dataclass(frozen=True)
class TraceStep:
    n: int
    set_id: str
    x: Point
    y: Point
    e: Point
    z: Point

    def as_record(self) -> dict:
        return {
            "step": self.n,
            "set": self.set_id,
            "x": [scalar_str(self.x.x), scalar_str(self.x.y)],
            "y": [scalar_str(self.y.x), scalar_str(self.y.y)],
            "e": [scalar_str(self.e.x), scalar_str(self.e.y)],
            "z": [scalar_str(self.z.x), scalar_str(self.z.y)],
        }


@dataclass(frozen=True)
class Trace:
    """Logged game: per-round records plus the error left after the last."""

    mode: str
    steps: tuple[TraceStep, ...]
    final_error: Point

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def records(self) -> list[dict]:
        return [s.as_record() for s in self.steps]


def _mix(*parts: int | None) -> int:
    acc = 0
    for p in parts:
        acc = acc * 1_000_003 + (0 if p is None else p + 1)
    return acc


def play(mode: str, provider: ScenarioProvider, opponent: Opponent,
         steps: int, seed: int = 0) -> Iterator[TraceStep]:
    """Play a tracking game, yielding each round's TraceStep as it is made.

    The arguments are checked here, before the first round is asked for.
    The outcome is a pure function of (mode, provider, opponent, steps,
    seed): both random streams are derived from the run seed combined with
    the owners' seeds, so equal arguments replay byte-identical rounds.
    The error left after the last round is its z - y.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return _rounds(mode, provider, opponent, steps, seed)


def _rounds(mode: str, provider: ScenarioProvider, opponent: Opponent,
            steps: int, seed: int) -> Iterator[TraceStep]:
    prng = random.Random(_mix(seed, provider.seed, 1))
    orng = random.Random(_mix(seed, opponent.seed, 2))
    e = ORIGIN
    if mode == "undelayed":
        for n in range(steps):
            fs = provider.pick(n, prng)
            x = opponent.pick(fs, e, n, orng)
            y, e_next, z = step_undelayed(e, fs, x)
            yield TraceStep(n, fs.set_id, x, y, e, z)
            e = e_next
        return
    if steps == 0:
        return
    fs = provider.pick(0, prng)
    x = opponent.pick(fs, e, 0, orng)
    _check_input(fs, x)
    z = x  # z_0 = e_0 + x_0
    for n in range(steps):
        y = fs.project(z)
        yield TraceStep(n, fs.set_id, x, y, e, z)
        e = z - y
        fs_next = provider.pick(n + 1, prng)
        x = opponent.pick(fs, e, n + 1, orng)  # from the set already seen
        _check_input(fs, x)
        z = e + x
        fs = fs_next


def run(mode: str, provider: ScenarioProvider, opponent: Opponent,
        steps: int, seed: int = 0) -> Trace:
    """Play a tracking game for the given number of rounds and keep every
    round: the Trace of play's steps and the error left after the last."""
    out = tuple(play(mode, provider, opponent, steps, seed))
    return Trace(mode, out, out[-1].z - out[-1].y if out else ORIGIN)


# ---------------------------------------------------------------------------
# trajectory checks and bounds


def _membership(domain) -> Callable[[Point], bool]:
    if isinstance(domain, (Region, ConvexPolygon)):
        return domain.contains_point
    if isinstance(domain, (Finite, Convex, Triangle)):
        return domain.contains
    raise TypeError(f"cannot test membership in {type(domain).__name__}")


def check_containment(trace: Trace, domain, which: str = "error") -> list[int]:
    """Indices of logged rounds whose error (or running total) escapes.

    which = "error" also checks the error left after the final round,
    reported under index len(trace).
    """
    if which not in ("error", "z"):
        raise ValueError(f"unknown trace field {which!r}")
    inside = _membership(domain)
    bad = [s.n for s in trace.steps
           if not inside(s.e if which == "error" else s.z)]
    if which == "error" and not inside(trace.final_error):
        bad.append(len(trace.steps))
    return bad


def _scenario_atoms(scenario) -> list:
    if isinstance(scenario, Collection):
        return list(scenario)
    if isinstance(scenario, (SiteSet, TriangleFamily, Finite, Convex, Triangle)):
        return [scenario]
    return list(scenario)


def _atom_vertices(atom) -> tuple[Point, ...]:
    if isinstance(atom, SiteSet):
        return atom.hull.vertices
    if isinstance(atom, TriangleFamily):
        # distance to T(h, t) corners is quadratic in h, so the extremes
        # over the family sit at h = 0 and h = h_max: the envelope corners
        return atom.envelope.hull_vertices()
    return atom.hull_vertices()


def _atom_inside(atom, domain) -> bool:
    inside = _membership(domain)
    if isinstance(atom, (SiteSet, Finite)):
        sites = atom.sites if isinstance(atom, SiteSet) else atom.sites.sites
        return all(inside(s) for s in sites)
    ring = _atom_vertices(atom)
    if len(ring) < 3:
        return all(inside(p) for p in ring)
    return subset(ConvexPolygon.hull_of(ring), domain)


def error_bound_from_domain(domain, scenario) -> Scalar:
    """Squared error bound for trajectories whose running total stays in domain.

    Combines two exact bounds: the largest squared norm over the difference
    body domain - hull(S), maximized over the scenario (vertex pairs attain
    it), and, when every feasible set lies inside domain, the squared
    diameter of domain.  Returns the smaller applicable value.

    domain must be a Region or a ConvexPolygon; any other domain, such as
    the feasible sets (Finite, Convex, Triangle) that check_containment
    also accepts, raises TypeError.
    """
    if not isinstance(domain, (Region, ConvexPolygon)):
        raise TypeError(f"cannot bound the error over {type(domain).__name__}")
    d_verts = domain.vertices
    atoms = _scenario_atoms(scenario)
    if not atoms:
        raise ValueError("scenario provides no feasible sets")
    part_i = max(dist_sq(d, s)
                 for atom in atoms
                 for s in _atom_vertices(atom)
                 for d in d_verts)
    if all(_atom_inside(atom, domain) for atom in atoms):
        return min(part_i, domain.diameter_sq)
    return part_i
