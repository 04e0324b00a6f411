"""Set operators over site-set collections and the fixed-point iteration.

The g operator pushes a star region through every Voronoi cell of a site
set and recenters each piece on its site; p does the dual clip-then-sum.
Capital variants take convex hulls per member before uniting. Iterating any
of them from a seed grows a monotone chain of regions whose limit is the
minimal invariant set; the engine below runs that chain with exact rational
arithmetic, optional coordinate rounding, and a stopping rule based on
canonical vertex equality.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .booleans import triangulate, union_one_region
from .geometry import (
    ConvexPolygon,
    DisconnectedUnion,
    GeometryError,
    KernelViolation,
    ORIGIN,
    Point,
    PointSeed,
    Region,
    convex_hull,
    dist_sq,
    equal_canonical,
    is_convex_ring,
    minkowski_convex,
    orient,
    scalar_str,
    star_kernel_contains,
)
from .starunion import union_star
from .voronoi import (
    SiteSet,
    cell,
    intersect_region_cell,
    intersect_region_cell_components,
)

OPERATORS = ("g", "G", "p", "P")

Seed = Region | PointSeed


@dataclass(frozen=True)
class Collection:
    """Finite family of site sets acted on jointly by the operators."""

    members: tuple[SiteSet, ...]
    name: str = ""

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("collection needs at least one member")
        ids = [S.id for S in members]
        if len(set(ids)) != len(ids):
            raise ValueError("member ids must be unique")

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class IterationConfig:
    epsilon: Fraction = Fraction(1, 10**8)
    k: int = 300
    r: int = 10
    s: int = 20
    rounding_enabled: bool = True
    max_iter: int = 1000
    divergence_diameter_sq: Fraction | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if min(self.k, self.r, self.s, self.max_iter) < 1:
            raise ValueError("k, r, s, max_iter must be at least 1")


@dataclass
class RoundingEvent:
    iteration: int
    vertex: int
    coordinate: str
    before: Fraction
    after: Fraction
    reverted: bool = False

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "vertex": self.vertex,
            "coordinate": self.coordinate,
            "before": scalar_str(self.before),
            "after": scalar_str(self.after),
            "reverted": self.reverted,
        }


@dataclass
class IterationResult:
    final: Region
    iterations: int
    converged: bool
    stop_reason: str
    rounding_events: list[RoundingEvent] = field(default_factory=list)
    vertex_count_history: list[int] = field(default_factory=list)

    @property
    def rounding_free(self) -> bool:
        """True when no rounding ever altered an iterate."""
        return not any(not e.reverted for e in self.rounding_events)

    def log_records(self) -> list[dict]:
        """One record per iteration plus a closing summary record."""
        by_iter: dict[int, list[RoundingEvent]] = {}
        for e in self.rounding_events:
            by_iter.setdefault(e.iteration, []).append(e)
        records: list[dict] = []
        for i, count in enumerate(self.vertex_count_history, start=1):
            records.append({
                "iteration": i,
                "vertices": count,
                "rounding": [e.as_dict() for e in by_iter.get(i, [])],
            })
        records.append({
            "converged": self.converged,
            "iterations": self.iterations,
            "stop": self.stop_reason,
            "rounding_free": self.rounding_free,
            "final_vertices": len(self.final.vertices),
        })
        return records


class EmptyCellPiece(GeometryError):
    """A site's Voronoi cell missed ch S + Q in a g step.

    Every site c lies in ch S + Q, because Q holds the origin, and ch S + Q
    meets the cell of c in a neighbourhood of c, so valid input never
    raises this; it reports a broken premise.
    """


class IterationFailure(Exception):
    """A run that ended without reaching a fixed point (strict mode)."""

    def __init__(self, message: str, result: IterationResult):
        super().__init__(message)
        self.result = result


class MaxIterations(IterationFailure):
    pass


class Diverged(IterationFailure):
    pass


# ---------------------------------------------------------------------------
# Minkowski sum of a convex polygon with a star region

def minkowski_convex_star(P: ConvexPolygon, Q: Region) -> Region:
    """P + Q for convex P and Q star-shaped around the origin.

    Q is fanned into triangles from the origin; each convex summand is
    exact, and their union is star-shaped around any point of P.
    """
    if is_convex_ring(Q.vertices, Q._scaled):
        s = minkowski_convex(P, ConvexPolygon.hull_of(Q.vertices))
        return Region.from_ring(s.vertices, validate=False)
    parts = []
    vs = Q.vertices
    n = len(vs)
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        if orient(ORIGIN, a, b) == 0:
            continue
        tri = ConvexPolygon.hull_of((ORIGIN, a, b))
        parts.append(minkowski_convex(P, tri).vertices)
    return union_star(parts, P.vertices[0])


# ---------------------------------------------------------------------------
# the g family

def _check_g_seed(Q: Seed) -> None:
    if isinstance(Q, PointSeed):
        if Q.point != ORIGIN:
            raise KernelViolation("g-family seeds must be the origin")
    elif not Q.kernel_contains(ORIGIN):
        raise KernelViolation("g-family input must be star-shaped around the origin")


def g_step(S: SiteSet, Q: Seed) -> Region:
    """Union over sites c of ((ch S + Q) ∩ V(c)) − c, star-shaped at 0."""
    _check_g_seed(Q)
    if isinstance(Q, PointSeed):
        X = Region.from_ring(S.hull.vertices, validate=False)
    else:
        X = minkowski_convex_star(S.hull, Q)
    pieces: list[Region] = []
    for c in S.sites:
        piece = intersect_region_cell(X, cell(S, c))
        if piece is None:
            raise EmptyCellPiece(f"cell of {c} misses ch S + Q")
        pieces.append(piece.translate(-c))
    return union_star(pieces, ORIGIN)


def g_step_collection(SS: Collection, Q: Seed) -> Region:
    if len(SS.members) == 1:
        return g_step(SS.members[0], Q)
    return union_star([g_step(S, Q) for S in SS.members], ORIGIN)


def _hull_region(region: Region, reference: Point | None = None) -> Region:
    return Region.from_ring(convex_hull(region.vertices),
                            reference=reference, validate=False)


def G_step(arg: SiteSet | Collection, Q: Seed) -> Region:
    """Convex variant: hull of each member's g_step, then the union."""
    if isinstance(arg, SiteSet):
        return _hull_region(g_step(arg, Q), ORIGIN)
    hulls = [_hull_region(g_step(S, Q), ORIGIN) for S in arg.members]
    if len(hulls) == 1:
        return hulls[0]
    return union_star(hulls, ORIGIN)


# ---------------------------------------------------------------------------
# the p family

def _sum_hull_with_ring(hull: ConvexPolygon, ring: list[Point]) -> list[list[Point]]:
    """Rings whose union is hull + ring, ring an arbitrary simple piece."""
    if is_convex_ring(ring):
        return [list(minkowski_convex(hull, ConvexPolygon.hull_of(ring)).vertices)]
    out = []
    for tri in triangulate(ring):
        out.append(list(minkowski_convex(hull, ConvexPolygon.hull_of(tri)).vertices))
    return out


def _clipped_pieces(S: SiteSet, D: Region) -> list[tuple[Point, list[list[Point]]]]:
    """Per site: the components of D ∩ V(c), untranslated."""
    out = []
    for c in S.sites:
        comps = intersect_region_cell_components(D, cell(S, c))
        if comps:
            out.append((c, comps))
    return out


def _p_step_general(hull: ConvexPolygon,
                    pieces: list[tuple[Point, list[list[Point]]]]) -> Region:
    parts: list[list[Point]] = []
    for c, comps in pieces:
        for comp in comps:
            shifted = [v - c for v in comp]
            parts.extend(_sum_hull_with_ring(hull, shifted))
    return union_one_region(parts)


def p_step(S: SiteSet, D: Seed) -> Region:
    """ch S + (union over sites c of (D ∩ V(c)) − c).

    When every recentered clip piece is star-shaped around the origin
    (which holds once the sites lie in D), the inner union and the final
    Minkowski sum both run on the radial fast path; any piece that
    disconnects or loses the origin drops the step to the general
    triangulate-and-unite route.
    """
    hull = S.hull
    if isinstance(D, PointSeed):
        s0 = D.point
        best = min(dist_sq(s0, c) for c in S.sites)
        shifts = [hull.translate(s0 - c).vertices for c in S.sites
                  if dist_sq(s0, c) == best]
        try:
            return union_star(shifts, s0).with_reference(None)
        except DisconnectedUnion:
            return union_one_region(shifts)
    pieces = _clipped_pieces(S, D)
    star_parts: list[list[Point]] | None = []
    for c, comps in pieces:
        if len(comps) != 1:
            star_parts = None
            break
        shifted = [v - c for v in comps[0]]
        if not star_kernel_contains(shifted, ORIGIN):
            star_parts = None
            break
        star_parts.append(shifted)
    if star_parts is not None:
        try:
            inner = union_star(star_parts, ORIGIN)
            return minkowski_convex_star(hull, inner).with_reference(None)
        except DisconnectedUnion:
            pass
    return _p_step_general(hull, pieces)


def p_step_collection(SS: Collection, D: Seed) -> Region:
    if len(SS.members) == 1:
        return p_step(SS.members[0], D)
    return union_one_region([p_step(S, D).vertices for S in SS.members])


def P_step(arg: SiteSet | Collection, D: Seed) -> Region:
    """Convex variant of p_step: per-member hulls, then the union."""
    if isinstance(arg, SiteSet):
        return _hull_region(p_step(arg, D))
    hulls = [_hull_region(p_step(S, D)) for S in arg.members]
    if len(hulls) == 1:
        return hulls[0]
    return union_one_region([h.vertices for h in hulls])


def apply_operator(op: str, SS: Collection, Q: Seed) -> Region:
    if op == "g":
        return g_step_collection(SS, Q)
    if op == "G":
        return G_step(SS, Q)
    if op == "p":
        return p_step_collection(SS, Q)
    if op == "P":
        return P_step(SS, Q)
    raise ValueError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# conditional rounding

def round_coordinate(q: Fraction, cfg: IterationConfig) -> Fraction:
    """Snap q to floor(q) + t, t the nearest small fraction, within epsilon.

    Candidates are reduced fractions a/b with 0 <= a <= b <= k. Ties pick
    the smaller denominator, then the smaller value.
    """
    base = q.numerator // q.denominator
    f = q - base
    t = f.limit_denominator(cfg.k)
    alt = 2 * f - t
    if (alt != t and 0 <= alt <= 1 and alt.denominator <= cfg.k
            and abs(alt - f) == abs(t - f)):
        if (alt.denominator, alt) < (t.denominator, t):
            t = alt
    if abs(t - f) <= cfg.epsilon:
        return base + t
    return q


def _wide(q: Fraction, s: int) -> bool:
    return max(len(str(abs(q.numerator))), len(str(q.denominator))) > s


def round_region(region: Region, cfg: IterationConfig,
                 iteration: int) -> tuple[Region, list[RoundingEvent]]:
    """Round every wide coordinate of the region, reverting on breakage.

    Validation re-checks simplicity and, when the region carries a star
    reference, that the reference stays in the kernel. A failed validation
    reverts the whole iteration's rounding; the events stay logged with
    reverted set.
    """
    events: list[RoundingEvent] = []
    pts: list[Point] = []
    for i, v in enumerate(region.vertices):
        x, y = v.x, v.y
        if _wide(x, cfg.s):
            nx = round_coordinate(x, cfg)
            if nx != x:
                events.append(RoundingEvent(iteration, i, "x", x, nx))
                x = nx
        if _wide(y, cfg.s):
            ny = round_coordinate(y, cfg)
            if ny != y:
                events.append(RoundingEvent(iteration, i, "y", y, ny))
                y = ny
        pts.append(Point(x, y))
    if not events:
        return region, events
    try:
        rounded = Region.from_ring(pts, reference=region.reference)
    except GeometryError:
        for e in events:
            e.reverted = True
        return region, events
    return rounded, events


# ---------------------------------------------------------------------------
# the iteration engine

def iterate(op: str, SS: Collection, seed: Seed,
            cfg: IterationConfig | None = None, *,
            strict: bool = False) -> IterationResult:
    """Run op from seed to a fixed point.

    The reported iteration count is the smallest n >= 1 whose iterate is
    already invariant, confirmed by one further application. Rounding, when
    enabled, runs after the operator on every r-th iteration. converged is
    False when max_iter runs out or the iterate's squared diameter passes
    the divergence threshold; strict mode raises instead.
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    cfg = cfg or IterationConfig()
    if op in ("g", "G"):
        _check_g_seed(seed)
        if isinstance(seed, Region):
            seed = seed.with_reference(ORIGIN)
    threshold = cfg.divergence_diameter_sq
    if threshold is None:
        threshold = 10**6 * max(S.hull.diameter_sq for S in SS.members)

    events: list[RoundingEvent] = []
    history: list[int] = []
    cur: Seed = seed
    for n in range(1, cfg.max_iter + 1):
        nxt = apply_operator(op, SS, cur)
        if cfg.rounding_enabled and n % cfg.r == 0:
            nxt, evs = round_region(nxt, cfg, n)
            events.extend(evs)
        history.append(len(nxt.vertices))
        if isinstance(cur, Region) and equal_canonical(nxt, cur):
            return IterationResult(nxt, max(n - 1, 1), True, "fixed-point",
                                   events, history)
        if nxt.diameter_sq > threshold:
            result = IterationResult(nxt, n, False, "diverged", events, history)
            if strict:
                raise Diverged("iterate diameter passed the divergence threshold",
                               result)
            return result
        cur = nxt
    assert isinstance(cur, Region)
    result = IterationResult(cur, cfg.max_iter, False, "max-iterations",
                             events, history)
    if strict:
        raise MaxIterations(f"no fixed point within {cfg.max_iter} iterations",
                            result)
    return result
