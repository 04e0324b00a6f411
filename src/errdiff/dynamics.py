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

A round runs on integers alone: every point is Ratios (geometry), two
reduced integer pairs, and no Fraction is built between an input and its
trace line.  A feasible set gives its hull ring over one common
denominator (ring), membership (holds) and projection (nearest) on
Ratios; the opponent samples, cycles and votes on the ring, and
add_ratios and sub_ratios make e + x and z - y.

What depends on the set alone is built once per set: its ring, and the
cumulative fan weights (fan) that the uniform opponent draws a fan
triangle by.  A round does only what depends on its points: three draws
and one fan lookup for a uniform input, one membership test of the input
on the ring's own integers (ratios_in_ring, which copies no ring), and
the output: the nearest site of a finite set, or, for a convex set or a
wedge, the point itself when the set holds it, and the nearest edge foot
only when it does not.  A wedge of the random-triangle provider is new
every round, so its ring is built per round in closed form, and it has
no fan weights to build.

play is the one game API: it yields a game one TraceStep, a named tuple
of the round's Ratios, at a time.  `errdiff simulate` writes each trace
line as play yields it (cli._write_trace), and check_containment tests
each step as it arrives, so no game is held whole; both take the error
left after the last round as that round's z - y.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

from .geometry import (
    GeometryError,
    Point,
    Ratios,
    Region,
    Scalar,
    Scaled,
    add_ratios,
    dist_sq,
    exact,
    is_convex_ring,
    nearest_on_boundary,
    ratios_in_ring,
    point_of,
    project_convex_ring,
    ratio_str,
    ratios,
    reduced,
    sub_ratios,
    vertex_ratios,
)
from .booleans import subset
from .operators import Collection
from .voronoi import SiteSet, project_ratios

MODES = ("undelayed", "delayed")
PROVIDER_MODES = ("fixed", "cyclic", "random-from-collection", "random-triangle")
STRATEGIES = ("uniform-random-in-hull", "hull-vertex-cycle", "error-aligned-vertex")


class InputOutsideHull(GeometryError):
    """An input point falls outside the hull it must be drawn from."""


class NotConvex(GeometryError):
    """A polygon given to Convex has a vertex that is not a strict left
    turn, so nearest points on its boundary are not its projection."""


def _strs(q: Ratios) -> list[str]:
    return [ratio_str(q[0], q[1]), ratio_str(q[2], q[3])]


# ---------------------------------------------------------------------------
# feasible sets


class _Feasible:
    """Membership in a feasible set's hull ring, and the ring's fan weights
    for the uniform opponent, built once per set."""

    def holds(self, q: Ratios) -> bool:
        return ratios_in_ring(self.ring, q) >= 0

    @cached_property
    def fan(self) -> tuple[int, ...]:
        return fan_weights(self.ring)


@dataclass(frozen=True)
class Finite(_Feasible):
    """Feasible set given by finitely many sites; outputs snap to a site."""

    sites: SiteSet

    @property
    def set_id(self) -> str:
        return self.sites.id or "sites"

    @cached_property
    def ring(self) -> Scaled:
        return self.sites.hull._scaled

    def nearest(self, q: Ratios) -> Ratios:
        return project_ratios(self.sites, q)


@dataclass(frozen=True)
class Convex(_Feasible):
    """Feasible set filling a convex polygon; outputs are nearest points."""

    polygon: Region
    label: str = "convex"

    def __post_init__(self):
        if not is_convex_ring(self.polygon._scaled):
            raise NotConvex(f"{self.label}: the polygon is not convex")

    @property
    def set_id(self) -> str:
        return self.label

    @cached_property
    def ring(self) -> Scaled:
        return self.polygon._scaled

    def nearest(self, q: Ratios) -> Ratios:
        return project_convex_ring(self.ring, q)


@dataclass(frozen=True, init=False)
class Triangle(_Feasible):
    """The symmetric wedge slice T(h, t) = {(x, y): 0 <= y <= h, |x| <= t*y}.

    h is the height, t the half-width per unit height, both kept as reduced
    integer pairs (hq, tq) so the corners are exact.  h = 0 degenerates to
    the origin alone.
    """

    hq: tuple[int, int]
    tq: tuple[int, int]
    # its ring has one or three vertices, for which fan_weights builds none
    fan = ()

    def __init__(self, h: Scalar, t: Scalar):
        h, t = exact(h), exact(t)
        if h < 0:
            raise ValueError("triangle height must be nonnegative")
        if t <= 0:
            raise ValueError("triangle slope must be positive")
        object.__setattr__(self, "hq", h.as_integer_ratio())
        object.__setattr__(self, "tq", t.as_integer_ratio())

    @classmethod
    def _of(cls, hq: tuple[int, int], tq: tuple[int, int]) -> "Triangle":
        """T(h, t) from reduced pairs with h >= 0 and t > 0, unchecked."""
        tri = cls.__new__(cls)
        object.__setattr__(tri, "hq", hq)
        object.__setattr__(tri, "tq", tq)
        return tri

    @property
    def set_id(self) -> str:
        return f"T({ratio_str(*self.hq)},{ratio_str(*self.tq)})"

    @cached_property
    def ring(self) -> Scaled:
        """T(h, t) = h*T(1, t): over hd*td the corners (+-t*h, h) are
        (+-tn*hn, td*hn), and one gcd brings that to the lcm of their
        reduced denominators, as over_common_denominator gives it."""
        (hn, hd), (tn, td) = self.hq, self.tq
        if hn == 0:
            return 1, [0], [0]
        x, y, m = tn * hn, td * hn, hd * td
        g = gcd(m, x, y)
        x, y, m = x // g, y // g, m // g
        return m, [0, x, -x], [0, y, y]

    def holds(self, q: Ratios) -> bool:
        """0 <= y <= h and |x| <= t*y, cross-multiplied."""
        xn, xd, yn, yd = q
        (hn, hd), (tn, td) = self.hq, self.tq
        return 0 <= yn and yn * hd <= hn * yd and abs(xn) * yd * td <= tn * yn * xd

    def nearest(self, q: Ratios) -> Ratios:
        if self.hq[0] == 0:
            return 0, 1, 0, 1
        if self.holds(q):
            return q
        # the ring ORIGIN, (w, h), (-w, h) runs CCW, and the nearest point of
        # a convex set is unique, so the edge order cannot change it
        return nearest_on_boundary(self.ring, q)


FeasibleSet = Finite | Convex | Triangle


@dataclass(frozen=True)
class TriangleFamily:
    """All wedges T(h, t) with 0 <= h <= h_max and a common slope t."""

    h_max: Scalar
    t: Scalar

    def __post_init__(self):
        object.__setattr__(self, "h_max", exact(self.h_max))
        object.__setattr__(self, "t", exact(self.t))
        if self.h_max < 0:
            raise ValueError("family height must be nonnegative")
        if self.t <= 0:
            raise ValueError("family slope must be positive")

    def draw(self, rng: random.Random) -> Triangle:
        """T(h, t) for h = Fraction(rng.random()) * h_max, on integers."""
        rn, rd = rng.random().as_integer_ratio()
        h_max = self.h_max
        return Triangle._of(reduced(rn * h_max.numerator, rd * h_max.denominator),
                            self.t.as_integer_ratio())

    @property
    def envelope(self) -> Triangle:
        return Triangle(self.h_max, self.t)


def triangle_bound(h_max: Scalar, t: Scalar) -> Scalar:
    """Squared diameter of T(h_max, t): the longer of a leg and the base."""
    h = exact(h_max)
    t = exact(t)
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
        return self.family.draw(rng)


def fan_weights(scaled: Scaled) -> tuple[int, ...]:
    """The cumulative weights of the fan triangles (a, b, c) around the first
    vertex of the hull ring (m, xs, ys), each twice its area over m^2.  A
    ring of at most three vertices has one fan triangle at most, which
    every draw picks, so it gets none."""
    _, xs, ys = scaled
    if len(xs) <= 3:
        return ()
    ax, ay = xs[0], ys[0]
    acc, out = 0, []
    for i in range(1, len(xs) - 1):
        acc += (xs[i] - ax) * (ys[i + 1] - ay) - (ys[i] - ay) * (xs[i + 1] - ax)
        out.append(acc)
    return tuple(out)


def sample_hull_ratios(fs: FeasibleSet, rng: random.Random) -> Ratios:
    """Uniform point of the hull of fs, exact once the float draws are fixed.

    It reads the hull ring of fs over its common denominator, (m, xs, ys)
    as over_common_denominator gives it, and the fan_weights that fs
    caches beside it, so the two always belong together.  Three
    draws, in order: one picks a fan triangle (a, b, c) around the first
    vertex with probability proportional to its area, two give the point
    a + u (b - a) + v (c - a), reflected when u + v > 1.  A draw f enters
    as f.as_integer_ratio(), exactly Fraction(f); the weights and the point
    are integers over that common denominator.  A hull of one vertex draws
    nothing.
    """
    scaled, fan = fs.ring, fs.fan
    m, xs, ys = scaled
    if len(xs) == 1:
        return vertex_ratios(scaled, 0)
    ax, ay = xs[0], ys[0]
    rn, rd = rng.random().as_integer_ratio()
    # the first triangle whose cumulative weight w has r < w rd, that is
    # w > r // rd on integers; rn < rd, so the last one always qualifies
    b = bisect_right(fan, rn * fan[-1] // rd) + 1 if fan else 1
    un, ud = rng.random().as_integer_ratio()
    vn, vd = rng.random().as_integer_ratio()
    if un * vd + vn * ud > ud * vd:
        un, vn = ud - un, vd - vn
    den = m * ud * vd
    return (*reduced(ax * ud * vd + (xs[b] - ax) * un * vd + (xs[b + 1] - ax) * vn * ud, den),
            *reduced(ay * ud * vd + (ys[b] - ay) * un * vd + (ys[b + 1] - ay) * vn * ud, den))


@dataclass(frozen=True)
class Opponent:
    """Input generator; every pick lies in the hull it is handed."""

    strategy: str
    seed: int | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown opponent strategy {self.strategy!r}")

    def pick(self, fs: FeasibleSet, error: Ratios, n: int,
             rng: random.Random) -> Ratios:
        """Round n's input from the ring of fs, given the error so far."""
        ring = fs.ring
        _, xs, ys = ring
        if self.strategy == "hull-vertex-cycle":
            return vertex_ratios(ring, n % len(xs))
        if self.strategy == "error-aligned-vertex":
            # v . error times a positive integer, for every vertex v; the
            # largest wins, and a tie goes to the smallest vertex
            exn, exd, eyn, eyd = error
            a, b = exn * eyd, eyn * exd
            return vertex_ratios(ring, max(range(len(xs)), key=lambda i: (
                xs[i] * a + ys[i] * b, -xs[i], -ys[i])))
        return sample_hull_ratios(fs, rng)


# ---------------------------------------------------------------------------
# game steps and traces


def _check_input(fs: FeasibleSet, x: Ratios) -> None:
    if not fs.holds(x):
        xs, ys = _strs(x)
        raise InputOutsideHull(f"input ({xs}, {ys}) outside hull of {fs.set_id}")


def _undelayed(e: Ratios, fs: FeasibleSet, x: Ratios) -> tuple[Ratios, Ratios, Ratios]:
    _check_input(fs, x)
    z = add_ratios(e, x)
    y = fs.nearest(z)
    return y, sub_ratios(z, y), z


class TraceStep(NamedTuple):
    """One round as Ratios: input x, output y, error e before it, and the
    target e + x (undelayed) or the running total (delayed) z."""

    n: int
    set_id: str
    qx: Ratios
    qy: Ratios
    qe: Ratios
    qz: Ratios

    def as_record(self) -> dict:
        return {"step": self.n, "set": self.set_id, "x": _strs(self.qx),
                "y": _strs(self.qy), "e": _strs(self.qe), "z": _strs(self.qz)}


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
    e = 0, 1, 0, 1  # e_0 = 0
    if mode == "undelayed":
        for n in range(steps):
            fs = provider.pick(n, prng)
            x = opponent.pick(fs, e, n, orng)
            y, e_next, z = _undelayed(e, fs, x)
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
        y = fs.nearest(z)
        yield TraceStep(n, fs.set_id, x, y, e, z)
        e = sub_ratios(z, y)
        fs_next = provider.pick(n + 1, prng)
        x = opponent.pick(fs, e, n + 1, orng)  # from the set already seen
        _check_input(fs, x)
        z = add_ratios(e, x)
        fs = fs_next


# ---------------------------------------------------------------------------
# trajectory checks and bounds


def check_containment(steps: Iterable[TraceStep], domain) -> list[int]:
    """Indices of the rounds whose error escapes domain.

    steps is any iterable of a game's TraceSteps, play's generator
    included, read once.  Each round's error e is checked, and then the
    error left after the last round, its z - y (the origin when there is
    none), under the index that counts the steps.
    """
    if not isinstance(domain, (Region, Finite, Convex, Triangle)):
        raise TypeError(f"cannot test membership in {type(domain).__name__}")
    inside = domain.holds
    bad = []
    count, last = 0, None
    for count, last in enumerate(steps, 1):
        if not inside(last.qe):
            bad.append(last.n)
    final = (0, 1, 0, 1) if last is None else sub_ratios(last.qz, last.qy)
    if not inside(final):
        bad.append(count)
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
    # distance to T(h, t) corners is quadratic in h, so the extremes over a
    # family sit at h = 0 and h = h_max: the envelope corners
    ring = (atom.envelope if isinstance(atom, TriangleFamily) else atom).ring
    return tuple(point_of(vertex_ratios(ring, i)) for i in range(len(ring[1])))


def _atom_inside(atom, domain) -> bool:
    if isinstance(atom, (SiteSet, Finite)):
        points = atom.sites if isinstance(atom, SiteSet) else atom.sites.sites
    else:
        points = _atom_vertices(atom)
        if len(points) >= 3:
            return subset(Region.hull_of(points), domain)
    return all(domain.holds(ratios(p)) for p in points)


def error_bound_from_domain(domain, scenario) -> Scalar:
    """Squared error bound for trajectories whose running total stays in domain.

    Combines two exact bounds: the largest squared norm over the difference
    body domain - hull(S), maximized over the scenario (vertex pairs attain
    it), and, when every feasible set lies inside domain, the squared
    diameter of domain.  Returns the smaller applicable value.

    domain must be a Region; any other domain, such as
    the feasible sets (Finite, Convex, Triangle) that check_containment
    also accepts, raises TypeError.
    """
    if not isinstance(domain, Region):
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
