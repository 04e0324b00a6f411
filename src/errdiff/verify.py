"""Structural checks over computed sets, with exact or sampled evidence.

Every check answers through the same report shape: a name, a verdict, and
the witnesses that broke it (none when it passed).  Subset and membership
questions are decided exactly in rational arithmetic; the triangle-family
and reachability checks are sampled, which makes a green result evidence
rather than proof, while any witness they produce is an exact
counterexample.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .booleans import subset_witness
from .dynamics import Triangle, TriangleFamily, sample_hull_ratios
from .geometry import (
    DegenerateHull,
    ORIGIN,
    Point,
    Ratios,
    Region,
    Scalar,
    _shift,
    add_ratios,
    point_of,
    scalar_str,
    sub_ratios,
    vertex_ratios,
)
from .operators import Collection, apply_operator, cell_pieces
from .voronoi import SiteSet, materialize_cell, nearest_sites

WITNESS_CAP = 10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check; it passes exactly when no witness survived."""

    check: str
    passed: bool
    witnesses: tuple[Point, ...] = ()
    notes: str = ""

    def __post_init__(self):
        if self.passed != (not self.witnesses):
            raise ValueError("passed must mirror the absence of witnesses")


def _report(check: str, witnesses, notes: str = "") -> VerificationReport:
    witnesses = tuple(witnesses)
    if len(witnesses) > WITNESS_CAP:
        notes = (notes + f"; showing {WITNESS_CAP} of {len(witnesses)} witnesses").strip("; ")
        witnesses = witnesses[:WITNESS_CAP]
    return VerificationReport(check, not witnesses, witnesses, notes)


def _as_collection(scenario) -> Collection:
    if isinstance(scenario, Collection):
        return scenario
    if isinstance(scenario, SiteSet):
        return Collection((scenario,))
    return Collection(tuple(scenario))


# ---------------------------------------------------------------------------
# exact invariance checks


def _is_invariant(op: str, scenario, Q: Region) -> VerificationReport:
    """is_invariant_g or is_invariant_p, by the operator letter op."""
    image = apply_operator(op, _as_collection(scenario), Q)
    w = subset_witness(image, Q)
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
# sampled evidence


def triangle_family_check(h_max: Scalar, t: Scalar, samples: int = 10_000,
                          seed: int = 0,
                          candidate: Triangle | None = None) -> VerificationReport:
    """Sampled invariance of a wedge under one delayed round.

    Draws triples (h, z, x) with z in the candidate wedge and x in T(h),
    then requires z - proj_{T(h)}(z) + x to stay inside the candidate.
    When a candidate smaller than T(h_max) is supplied, the same probes
    double as a floor test: points of T(h_max) must already belong to any
    set that survives this check.  Witnesses are exact escape points; a
    negative samples raises ValueError.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    fam = TriangleFamily(h_max, t)
    envelope = fam.envelope
    target = candidate if candidate is not None else envelope
    rng = random.Random(seed)
    witnesses: list[Point] = []

    def push(q: Ratios):
        if not target.holds(q):
            witnesses.append(point_of(q))

    def after_round(z: Ratios, tri: Triangle, x: Ratios) -> Ratios:
        return add_ratios(sub_ratios(z, tri.nearest(z)), x)

    def corners(tri: Triangle) -> list[Ratios]:
        return [vertex_ratios(tri.ring, i) for i in range(len(tri.ring[1]))]

    # deterministic probes: family corners must be reachable, hence covered
    for w in corners(envelope):
        push(w)
    probe_z = [v for v in corners(target) if envelope.holds(v)]
    for z in probe_z:
        for h in (envelope.h, envelope.h / 2):
            tri = Triangle(h, fam.t)
            for x in corners(tri):
                push(after_round(z, tri, x))
    tested = 0
    while tested < samples and len(witnesses) <= WITNESS_CAP:
        tri = fam.draw(rng)
        z = sample_hull_ratios(target.ring, rng)
        if not target.holds(z):
            z = target.nearest(z)
        push(after_round(z, tri, sample_hull_ratios(tri.ring, rng)))
        push(sample_hull_ratios(envelope.ring, rng))
        tested += 1
    notes = f"{tested} sampled triples, seed {seed} (evidence, not proof)"
    return _report("triangle_family_check", witnesses, notes)


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


def brute_force_reachable(scenario, steps: int, branching: int = 0,
                          seed: int = 0) -> tuple[Point, ...]:
    """Every accumulated error visited by breadth-first input exploration.

    From a zero error, each round picks a member, an input, and one of the
    nearest sites (all ties are explored, since any selection is a legal
    quantizer).  branching = 0 exhausts the pool of extreme inputs: hull
    corners and clipped-cell vertices.  branching = k > 0 draws k random
    hull points per expansion instead; a negative steps or branching
    raises ValueError.  Depth steps = 0 returns just the origin.  The
    cloud is a certified subset of the reachable errors, so it
    lower-bounds every invariant region.
    """
    coll = _as_collection(scenario)
    if steps < 0 or branching < 0:
        raise ValueError("steps and branching must be nonnegative")
    rng = random.Random(seed)
    pools = {S.id: _input_pool(S) for S in coll} if branching == 0 else {}
    seen = {ORIGIN}
    frontier = [ORIGIN]
    for _ in range(steps):
        grown: list[Point] = []
        for e in frontier:
            for S in coll:
                if branching == 0:
                    inputs = pools[S.id]
                else:
                    inputs = [point_of(sample_hull_ratios(S.hull._scaled, rng))
                              for _ in range(branching)]
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


def reachable_within(scenario, Q: Region, steps: int, branching: int = 0,
                     seed: int = 0) -> VerificationReport:
    """Exact containment of a reachable cloud in Q, with its coverage ratio."""
    cloud = brute_force_reachable(scenario, steps, branching, seed)
    witnesses = [e for e in cloud if Q.locate(e) < 0]
    ratio = coverage_ratio(cloud, Q)
    notes = (f"cloud of {len(cloud)} errors, hull covers "
             f"{scalar_str(ratio)} of the target area")
    return _report("reachable_within", witnesses, notes)
