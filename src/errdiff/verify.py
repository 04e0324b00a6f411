"""Exact structural checks over computed sets.

Every check answers through the same report shape: a name, a verdict, and
the witnesses that broke it (none when it passed).  Subset, membership,
the triangle family's invariance and reachability are decided exactly in
rational arithmetic, and no check draws a random number.  An invariance
check passes an image equal to its set with no containment walk; g and p
hold their input, so every set that passes is one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .booleans import subset_witness
from .dynamics import Triangle
from .geometry import (
    DegenerateHull,
    ORIGIN,
    Point,
    Region,
    Scalar,
    _shift,
    point_of,
    scalar_str,
    vertex_ratios,
)
from .operators import Collection, apply_operator, cell_pieces
from .voronoi import SiteSet, materialize_cell, nearest_sites

WITNESS_CAP = 10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check; it passes exactly when no witness survived."""

    check: str
    witnesses: tuple[Point, ...] = ()
    notes: str = ""

    @property
    def passed(self) -> bool:
        return not self.witnesses


def _report(check: str, witnesses, notes: str = "") -> VerificationReport:
    witnesses = tuple(witnesses)
    if len(witnesses) > WITNESS_CAP:
        notes = (notes + f"; showing {WITNESS_CAP} of {len(witnesses)} witnesses").strip("; ")
        witnesses = witnesses[:WITNESS_CAP]
    return VerificationReport(check, witnesses, notes)


def _as_collection(scenario) -> Collection:
    if isinstance(scenario, Collection):
        return scenario
    if isinstance(scenario, SiteSet):
        return Collection((scenario,))
    return Collection(tuple(scenario))


# ---------------------------------------------------------------------------
# exact invariance checks


def _is_invariant(op: str, scenario, Q: Region) -> VerificationReport:
    """is_invariant_g or is_invariant_p, by the operator letter op; an image
    equal to Q passes with no containment walk (equal rings, equal sets)."""
    image = apply_operator(op, _as_collection(scenario), Q)
    w = None if image == Q else subset_witness(image, Q)
    notes = f"image has {len(image)} vertices"
    return _report(f"is_invariant_{op}", () if w is None else (w,), notes)


def is_invariant_g(scenario, Q: Region) -> VerificationReport:
    """Does Q swallow its own g image across the whole collection (exact)?"""
    return _is_invariant("g", scenario, Q)


def is_invariant_p(scenario, D: Region) -> VerificationReport:
    """Does D swallow its own p image across the whole collection (exact)?"""
    return _is_invariant("p", scenario, D)


def is_star_convex_origin(Q: Region) -> VerificationReport:
    """Is every point of Q visible from the origin (exact kernel test)?"""
    if Q.kernel_contains(ORIGIN):
        return _report("is_star_convex_origin", ())
    _, xs, ys = Q._scaled
    ring = Q.vertices
    witnesses = []
    for i, u in enumerate(ring):
        j = (i + 1) % len(ring)
        if xs[i] * ys[j] < ys[i] * xs[j]:  # the origin is strictly right of u -> v
            v = ring[j]
            witnesses.append(Point((u.x + v.x) / 2, (u.y + v.y) / 2))
    return _report("is_star_convex_origin", witnesses,
                   "origin falls outside the edge halfplanes at these midpoints")


def covers_translated_inner_cells(S: SiteSet, Q: Region) -> VerificationReport:
    """Does Q contain every bounded cell, built from its walls
    (materialize_cell) and recentered on its site (exact)?"""
    witnesses = []
    for c in S.inners:
        w = subset_witness(Region(*_shift(materialize_cell(S, c)._scaled, -c)), Q)
        if w is not None:
            witnesses.append(w)
    notes = f"checked {len(S.inners)} bounded cells"
    return _report("covers_translated_inner_cells", witnesses, notes)


def contains_union_of_hulls(scenario, D: Region) -> VerificationReport:
    """Does D contain the hull of every member (exact)?"""
    coll = _as_collection(scenario)
    witnesses = []
    for S in coll:
        w = subset_witness(S.hull, D)
        if w is not None:
            witnesses.append(w)
    return _report("contains_union_of_hulls", witnesses,
                   f"checked {len(coll)} member hulls")


# ---------------------------------------------------------------------------
# exact triangle-family check
#
# An affine form (a, b, c, d) stands for a*z_x + b*z_y + c*h + d, and a point
# (z_x, z_y, h) = (X/D, Y/D, H/D) with D > 0 is kept as (X, Y, H, D), so a
# form's sign there is the sign of one integer dot product.


def _fan_pieces(p: int, q: int):
    """The 7 pieces of T(h, p/q)'s normal fan, with the error they leave.

    Each piece is (forms, (wx, wy), den): the piece is where every form is
    <= 0, and there z - proj_{T(h)}(z) = (wx, wy) / den.  T(h, t) = h*T(1, t)
    makes both linear in (z, h); n = q^2 + p^2 is q^2 (1 + t^2).
    """
    n = p * p + q * q
    return (
        # interior: w = 0
        (((q, -p, 0, 0), (-q, -p, 0, 0), (0, 1, -1, 0)),
         ((0, 0, 0, 0), (0, 0, 0, 0)), 1),
        # right edge: the foot on (0, 0) -> (t h, h), w along (q, -p)
        (((-q, p, 0, 0), (-p, -q, 0, 0), (p * q, q * q, -n, 0)),
         ((q * q, -p * q, 0, 0), (-p * q, p * p, 0, 0)), n),
        # top edge y = h
        (((0, -1, 1, 0), (q, 0, -p, 0), (-q, 0, -p, 0)),
         ((0, 0, 0, 0), (0, 1, -1, 0)), 1),
        # left edge: the foot on (0, 0) -> (-t h, h), w along (q, p)
        (((q, p, 0, 0), (p, -q, 0, 0), (-p * q, q * q, -n, 0)),
         ((q * q, p * q, 0, 0), (p * q, p * p, 0, 0)), n),
        # apex (0, 0): w = z
        (((p, q, 0, 0), (-p, q, 0, 0)),
         ((1, 0, 0, 0), (0, 1, 0, 0)), 1),
        # corner (t h, h)
        (((-p * q, -q * q, n, 0), (-q, 0, p, 0)),
         ((q, 0, -p, 0), (0, q, -q, 0)), q),
        # corner (-t h, h)
        (((p * q, -q * q, n, 0), (q, 0, p, 0)),
         ((q, 0, p, 0), (0, q, -q, 0)), q),
    )


def _dot(f, u) -> int:
    return f[0] * u[0] + f[1] * u[1] + f[2] * u[2] + f[3] * u[3]


def _cross(f, g) -> tuple[int, int, int]:
    return (f[1] * g[2] - f[2] * g[1], f[2] * g[0] - f[0] * g[2],
            f[0] * g[1] - f[1] * g[0])


def _vertices(forms) -> set[tuple[int, int, int, int]]:
    """Every vertex of the bounded polytope {every form <= 0}: each triple
    of planes with one common point, solved by Cramer's rule, kept when the
    point satisfies every form; (X, Y, H, D) is reduced with D > 0."""
    out = set()
    for i, f in enumerate(forms):
        for j in range(i + 1, len(forms)):
            g = forms[j]
            fg = _cross(f, g)
            for h in forms[j + 1:]:
                gh, hf = _cross(g, h), _cross(h, f)
                d = f[0] * gh[0] + f[1] * gh[1] + f[2] * gh[2]
                if d == 0:
                    continue
                u = [-(f[3] * gh[c] + g[3] * hf[c] + h[3] * fg[c]) for c in range(3)]
                if d < 0:
                    u, d = [-c for c in u], -d
                u.append(d)
                if all(_dot(e, u) <= 0 for e in forms):
                    m = gcd(*u)
                    out.add(tuple(c // m for c in u))
    return out


def _escapes(envelope: Triangle, target: Triangle):
    """Each vertex round that leaves the target, and how many were checked.

    The envelope is T(h_max, t).  A round z -> z - proj_{T(h)}(z) + x, with
    z in the target, 0 <= h <= h_max and x in T(h), leaves the target
    exactly when it crosses one of its three edge lines l.F <= c.  On a fan
    piece l.w is affine in (z, h), and x adds at most h * mu, mu the
    largest l.v over the corners v of T(1, t); so the largest excess sits
    at a vertex of the piece cut to the target and to 0 <= h <= h_max.
    The escapes are (F, z, h, x), all exact, with x = h * v at the corner
    that attains mu.
    """
    (p, q), (hn, hd) = envelope.tq, envelope.hq
    (a, b), (Hn, Hd) = target.tq, target.hq
    box = ((b, -a, 0, 0), (-b, -a, 0, 0), (0, Hd, 0, -Hn), (0, 0, -1, 0), (0, 0, hd, -hn))
    edges = []  # (l_x, l_y, c, q * mu, v)
    for lx, ly, c in ((b, -a, 0), (-b, -a, 0), (0, Hd, Hn)):
        qmu, v = max((0, (0, 0)), (lx * p + ly * q, (p, q)), (-lx * p + ly * q, (-p, q)))
        edges.append((lx, ly, c, qmu, v))
    escapes = []
    checked = 0
    for forms, (wx, wy), den in _fan_pieces(p, q):
        vertices = _vertices(forms + box)
        checked += len(vertices)
        for lx, ly, c, qmu, v in edges:
            # den * q * (l.w + h * mu - c) as an affine form in (z, h)
            excess = [q * (lx * wx[i] + ly * wy[i]) for i in range(4)]
            excess[2] += den * qmu
            excess[3] -= den * q * c
            for u in vertices:
                if _dot(excess, u) > 0:
                    X, Y, H, D = u
                    h = Fraction(H, D)
                    x = Point(h * Fraction(v[0], q), h * Fraction(v[1], q))
                    w = Point(Fraction(_dot(wx, u), den * D), Fraction(_dot(wy, u), den * D))
                    escapes.append((w + x, Point(Fraction(X, D), Fraction(Y, D)), h, x))
    return escapes, checked


def triangle_family_check(h_max: Scalar, t: Scalar,
                          candidate: Triangle | None = None) -> VerificationReport:
    """Exact invariance of a wedge under one delayed round.

    Requires z - proj_{T(h)}(z) + x to stay inside the candidate (by
    default T(h_max, t)) for every z in it, 0 <= h <= h_max and x in
    T(h), decided on the vertices of T(h)'s normal-fan pieces (_escapes).
    A floor test rides along: the corners of T(h_max, t) are reachable,
    so any set that survives this check must hold them.  Witnesses are
    the exact escape points, sorted.
    """
    envelope = Triangle(h_max, t)
    target = candidate if candidate is not None else envelope
    escapes, checked = _escapes(envelope, target)
    witnesses = {F for F, *_ in escapes}
    corners = (vertex_ratios(envelope.ring, i) for i in range(len(envelope.ring[1])))
    witnesses.update(point_of(c) for c in corners if not target.holds(c))
    notes = f"exact: {checked} vertices of the 7 normal-fan pieces of T(h)"
    return _report("triangle_family_check", sorted(witnesses, key=Point.key), notes)


def _input_pool(S: SiteSet) -> tuple[Point, ...]:
    """Extreme inputs: hull corners plus every clipped-cell vertex.

    Cell vertices sit on quantization boundaries, where a single input
    realizes several outputs at once; together with the hull corners they
    drive the error to the boundary of the minimal set.
    """
    pool = set(S.hull.vertices)
    for _, comps in cell_pieces(S, S.hull._scaled):
        pool.update(Point(Fraction(x, m), Fraction(y, m))
                    for m, xs, ys in comps for x, y in zip(xs, ys))
    return tuple(sorted(pool, key=Point.key))


def brute_force_reachable(scenario, steps: int) -> tuple[Point, ...]:
    """Every accumulated error visited by breadth-first input exploration.

    From a zero error, each round picks a member, an input from the pool
    of extreme inputs (hull corners and clipped-cell vertices), and every
    one of the nearest sites: any tie-break is a legal quantizer, so the
    cloud does not depend on the one play picks.  Depth steps = 0 returns
    just the origin, and a negative steps raises ValueError.  The cloud is
    a certified subset of the reachable errors, so it lower-bounds every
    invariant region.
    """
    coll = _as_collection(scenario)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    pools = [(S, _input_pool(S)) for S in coll]
    seen = {ORIGIN}
    frontier = [ORIGIN]
    for _ in range(steps):
        grown: list[Point] = []
        for e in frontier:
            for S, inputs in pools:
                for x in inputs:
                    z = e + x
                    for y in nearest_sites(S, z):
                        nxt = z - y
                        if nxt not in seen:
                            seen.add(nxt)
                            grown.append(nxt)
        frontier = grown
    return tuple(sorted(seen, key=Point.key))


def coverage_ratio(cloud, Q: Region) -> Fraction:
    """Area of the cloud hull over the area of Q (0 for flat clouds)."""
    try:
        hull = Region.hull_of(cloud)
    except DegenerateHull:
        return Fraction(0)
    return hull.area2 / Q.area2


def reachable_within(scenario, Q: Region, steps: int) -> VerificationReport:
    """Exact containment of the exhaustive steps-round cloud
    (brute_force_reachable) in Q, with its coverage ratio; every witness is
    a reachable error outside Q."""
    cloud = brute_force_reachable(scenario, steps)
    witnesses = [e for e in cloud if Q.locate(e) < 0]
    ratio = coverage_ratio(cloud, Q)
    notes = (f"cloud of {len(cloud)} errors, hull covers "
             f"{scalar_str(ratio)} of the target area")
    return _report("reachable_within", witnesses, notes)
