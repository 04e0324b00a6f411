"""Set operators over site-set collections and the fixed-point iteration.

All four operators are one recentred cell union, U(X) = union over sites
c of (X ∩ V(c)) − c, in opposite orders: g(Q) = U(ch S + Q) and
p(D) = ch S + U(D).  cell_pieces gives every component of X ∩ V(c) on
X's integers, from one walk of X's boundary through the diagram
(voronoi.split_ring), each a ring in the walk's own rotation, which the
envelope and the hull read as it is.  ch S is added by one
convolution-cycle walk (minkowski_convex_star), to a convex region
anywhere or to one star-shaped around the origin.  g and p unite
the pieces, each shifted by -c and checked to be one component with c in
its kernel (_star_cycles), in one radial envelope around the origin
(starunion.cycle_envelope): g pools every member's pieces, and p_step
takes one member's.  Where the check fails, or p_step's envelope pinches
at the origin, p_step takes its general route, which sweeps ch S along
each piece and unites the sweeps in booleans.union_one_region.  The
convex variants take the hull of the shifted pieces instead
(geometry.hull_of_rings), since a hull commutes with union and with
Minkowski sum: G(Q) = conv U(ch S + Q), which holds the origin in its
kernel, and P(D) = ch S + conv U(D), one convex walk; so they build no
envelope per member, and return a set also where the union pinches at
the center.  apply_operator is the one member loop: G
unites the member hulls in one envelope around the origin, and p and P
the members' images in one envelope around a point that every image
should hold in its kernel (the seed point, or shared_site), or in
union_one_region where that envelope fails.  Every ring is a Scaled
triple (m, xs, ys), and the snap candidates are made on integers too.
Iterating any operator from a seed grows a monotone chain of regions
whose limit is the minimal invariant set; the engine below runs that
chain with exact rational arithmetic and stops it in one of two ways: at
an exact fixed point (canonical ring equality), or at a certified outer
set.  For that, each iterate Q is snapped at the rungs D = 16, 64, 256
and 1024 with D * D <= Q.m, coarsest first (snap_rungs), and the first
candidate C that holds Q is carried to the next iteration
(snap_candidate); op(C) is built only once the next iterate lies in C,
and the run stops when op(C) ⊆ C (certify), all decided exactly.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .booleans import subset_witness, union_one_region
from .geometry import (
    DisconnectedUnion,
    GeometryError,
    KernelViolation,
    MultiComponent,
    NotStarAtCenter,
    ORIGIN,
    Point,
    PointSeed,
    Region,
    Scaled,
    _canonical_order,
    _shift,
    equal_canonical,
    hull_of_rings,
    is_convex_ring,
    ratios_in_ring,
    scalar_str,
)
from .starunion import cycle_envelope, star_cycle
from .voronoi import SiteSet, nearest_sites, split_ring

OPERATORS = ("g", "G", "p", "P")

Seed = Region | PointSeed
# each site c whose cell meets a ring, with the components of the ring in it
Pieces = list[tuple[Point, list[Scaled]]]


@dataclass(frozen=True)
class Collection:
    """Finite family of site sets acted on jointly by the operators."""

    members: tuple[SiteSet, ...]

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


# The rungs of the snap, candidate denominator bounds, coarsest first: an
# iterate Q is snapped at each rung D with D * D <= Q.m.  Both ends are
# measured limits, not tuning.  A rung of 4 below them certifies a coarser
# set than the chain's own fixed point on sset3 g and p, at iterations 13
# and 14: g's holds (-1/4, -5/4) where the fixed point has (-1/6, -7/6).
# Rungs that climb on by factors of 4 up to the square root of m took
# ssprime P 1.57 s to certify, against 0.45 s with 1024 as the top rung
# (shared 2-vCPU machine, Python 3.11), for the same set and count.
SNAP_RUNGS = (16, 64, 256, 1024)


# The iteration cap of a run whose caller sets none.
MAX_ITER = 1000


# A run diverges once an iterate's squared diameter passes this factor
# times the largest squared hull diameter of the members.
DIVERGENCE_FACTOR = 10**6


@dataclass
class IterationResult:
    """How a run stopped and the set it ships.

    A "certified" run ships an invariant outer set of the minimal set; gap
    is its area2 minus that of the last chain iterate, which it contains.
    Every other run has gap 0.
    """

    final: Region
    iterations: int
    stop_reason: str
    vertex_count_history: list[int] = field(default_factory=list)
    gap: Fraction = Fraction(0)

    @property
    def converged(self) -> bool:
        """True exactly when the run stopped at an exact fixed point or at a
        certified outer set."""
        return self.stop_reason in ("fixed-point", "certified")

    @property
    def rounding_free(self) -> bool:
        """False exactly when the run ships a certified outer set strictly
        larger than its last iterate (gap > 0): a nearly minimal set."""
        return self.gap == 0

    def log_records(self) -> list[dict]:
        """One record per iteration plus a closing summary record."""
        records: list[dict] = [
            {"iteration": i, "vertices": count, "rounding": []}
            for i, count in enumerate(self.vertex_count_history, start=1)]
        summary = {
            "converged": self.converged,
            "iterations": self.iterations,
            "stop": self.stop_reason,
            "rounding_free": self.rounding_free,
            "final_vertices": len(self.final),
        }
        if self.stop_reason == "certified":
            summary["gap"] = scalar_str(self.gap)
        records.append(summary)
        return records


class EmptyCellPiece(GeometryError):
    """A site's Voronoi cell missed ch S + Q in a g step.

    Every site c lies in ch S + Q, because Q holds the origin, and ch S + Q
    meets the cell of c in a neighbourhood of c, so valid input never
    raises this; it reports a broken premise.
    """


# ---------------------------------------------------------------------------
# Minkowski sum of a convex polygon with a convex or star region

def minkowski_convex_star(P: Region, Q: Region) -> Region:
    """P + Q for convex P and Q either convex or star-shaped around the
    origin.

    The sum is read off the convolution cycle of P and Q (Guibas, Ramshaw
    & Stolfi, FOCS 1983; Wein, ESA 2006): each edge of Q translated by the
    vertex of P whose cone of edge directions holds it, and at each vertex
    of Q the edges of P whose directions its turn sweeps, forward at a left
    turn and backward at a right turn.  The cycle is built on integers over
    one common denominator, relative to c = P.vertices[0].  When every turn
    of Q is a left turn, Q is convex, may lie anywhere, and the cycle is
    the boundary of P + Q: its canonical form is the sum.  Otherwise every
    cycle point lies in P + Q, which is star-shaped around every point of
    P, and the boundary of P + Q lies on the cycle, so the radial envelope
    around c (starunion.cycle_envelope) is the sum itself.
    """
    mp, pxs, pys = P._scaled
    mq, qxs, qys = Q._scaled
    m = lcm(mp, mq)
    kp, kq = m // mp, m // mq
    px = [(x - pxs[0]) * kp for x in pxs]
    py = [(y - pys[0]) * kp for y in pys]
    qx = [x * kq for x in qxs]
    qy = [y * kq for y in qys]
    k, n = len(px), len(qx)
    dpx = [px[(i + 1) % k] - px[i] for i in range(k)]
    dpy = [py[(i + 1) % k] - py[i] for i in range(k)]
    dqx = [qx[(j + 1) % n] - qx[j] for j in range(n)]
    dqy = [qy[(j + 1) % n] - qy[j] for j in range(n)]
    # start at the vertex i of P whose half-open cone [dP[i-1], dP[i]) holds
    # the edge of Q that enters q[0]
    ux, uy = dqx[-1], dqy[-1]
    for i in range(k):
        ax, ay, bx, by = dpx[i - 1], dpy[i - 1], dpx[i], dpy[i]
        cr = ax * uy - ay * ux
        if (cr > 0 or (cr == 0 and ax * ux + ay * uy > 0)) and ux * by - uy * bx > 0:
            break
    xs: list[int] = []
    ys: list[int] = []
    convex = True
    for j in range(n):
        vx, vy, x0, y0 = dqx[j], dqy[j], qx[j], qy[j]
        xs.append(px[i] + x0)
        ys.append(py[i] + y0)
        if ux * vy - uy * vx > 0:
            # left turn u -> v: forward through the P edges in (u, v]
            while True:
                wx, wy = dpx[i], dpy[i]
                if ux * wy - uy * wx <= 0 or wx * vy - wy * vx < 0:
                    break
                i = (i + 1) % k
                xs.append(px[i] + x0)
                ys.append(py[i] + y0)
        else:
            # right turn u -> v: backward through the P edges in (v, u]
            convex = False
            while True:
                wx, wy = dpx[i - 1], dpy[i - 1]
                if vx * wy - vy * wx <= 0 or wx * uy - wy * ux < 0:
                    break
                i = (i - 1) % k
                xs.append(px[i] + x0)
                ys.append(py[i] + y0)
        ux, uy = vx, vy
    if not convex:
        return cycle_envelope([(m, xs, ys)], P.vertices[0])
    ox, oy = pxs[0] * kp, pys[0] * kp
    order = _canonical_order(xs, ys)
    return Region(m, [xs[t] + ox for t in order], [ys[t] + oy for t in order])


# ---------------------------------------------------------------------------
# the recentred cell union U(X) = union over sites c of (X ∩ V(c)) − c

def cell_pieces(S: SiteSet, X: Scaled) -> Pieces:
    """Each site c whose cell meets the ring X, in S.sites order, with the
    components of X ∩ V(c), all from one walk of X's boundary through the
    diagram (split_ring)."""
    return [(c, comps) for c, comps in zip(S.sites, split_ring(S, X)) if comps]


def _recentred(pieces: Pieces) -> list[Scaled]:
    """The rings of U: every component of every cell's piece shifted by -c
    on integers."""
    return [_shift(ring, -c) for c, comps in pieces for ring in comps]


def _star_cycles(pieces: Pieces) -> list[Scaled]:
    """Each cell's piece shifted by -c on integers, as a ring around the
    origin (star_cycle): MultiComponent when a cell keeps more than one
    component, NotStarAtCenter when c is outside its piece's kernel."""
    cycles = []
    for c, comps in pieces:
        if len(comps) > 1:
            raise MultiComponent(f"cell of {c} cuts the region into {len(comps)} parts")
        cycles.append(star_cycle(comps[0], c))
    return cycles


# ---------------------------------------------------------------------------
# the g family

def _check_g_seed(Q: Seed) -> None:
    if isinstance(Q, PointSeed):
        if Q.point != ORIGIN:
            raise KernelViolation("g-family seeds must be the origin")
    elif not Q.kernel_contains(ORIGIN):
        raise KernelViolation("g-family input must be star-shaped around the origin")


def _g_pieces(S: SiteSet, Q: Seed) -> Pieces:
    """One member's cell_pieces of ch S + Q, for a seed that passed
    _check_g_seed; EmptyCellPiece when a cell misses it."""
    X = S.hull if isinstance(Q, PointSeed) else minkowski_convex_star(S.hull, Q)
    pieces = cell_pieces(S, X._scaled)
    if len(pieces) < len(S.sites):
        # pieces keep S.sites order, so the first missed site is the first
        # one that the hit sites, padded by None, do not match
        hit = [c for c, _ in pieces] + [None]
        missed = next(c for c, h in zip(S.sites, hit) if c is not h)
        raise EmptyCellPiece(f"cell of {missed} misses ch S + Q")
    return pieces


# ---------------------------------------------------------------------------
# the p family

def shared_site(SS: Collection) -> Point:
    """The least site, by Point.key, that every member of SS has: a point
    of every member hull.  KernelViolation when the members share no
    site."""
    common = set(SS.members[0].sites).intersection(*[S.sites for S in SS.members[1:]])
    if not common:
        raise KernelViolation("members share no site to center their union on")
    return min(common, key=lambda p: p.key())


def _sum_hull_with_ring(hull: Region, piece: Region) -> list[Region]:
    """Regions whose union is hull + piece, piece an arbitrary simple
    canonical region.

    A convex piece, which need not hold the origin, is summed by
    minkowski_convex_star.  Otherwise a point of the sum that misses the
    piece moved by one hull vertex lies on the hull swept along the piece's
    boundary, so the union of that moved piece with conv((hull + a) |
    (hull + b)) over the piece's edges [a, b] is the sum, all over the lcm
    of the two denominators.
    """
    if is_convex_ring(piece._scaled):
        return [minkowski_convex_star(hull, piece)]
    m = lcm(hull.m, piece.m)
    hxs = [x * (m // hull.m) for x in hull.xs]
    hys = [y * (m // hull.m) for y in hull.ys]
    rxs = [x * (m // piece.m) for x in piece.xs]
    rys = [y * (m // piece.m) for y in piece.ys]
    out = [Region(m, [x + hxs[0] for x in rxs], [y + hys[0] for y in rys])]
    n = len(rxs)
    for i in range(n):
        j = (i + 1) % n
        out.append(hull_of_rings([(m, [h + rxs[i] for h in hxs] + [h + rxs[j] for h in hxs],
                           [h + rys[i] for h in hys] + [h + rys[j] for h in hys])]))
    return out


def _p_step_general(hull: Region, pieces: Pieces) -> Region:
    parts = []
    for m, xs, ys in _recentred(pieces):
        order = _canonical_order(xs, ys)  # a cell piece's rotation
        parts += _sum_hull_with_ring(hull, Region(m, [xs[i] for i in order],
                                                  [ys[i] for i in order]))
    return union_one_region(parts)


def p_step(S: SiteSet, D: Seed) -> Region:
    """ch S + U(D), U(D) the union over sites c of (D ∩ V(c)) − c.

    A point seed {s0} gives the union of ch S + s0 − c over its nearest
    sites c, all star-shaped around s0: one radial envelope of the hull
    shifted by each -c (star_cycle), which raises DisconnectedUnion when
    they meet only at s0.  A region D is cut into cell_pieces; when each
    cell that meets D keeps one piece, star-shaped around the origin once
    shifted (which holds once the sites lie in D), U(D) is their envelope
    and ch S is added by the radial walk.  Where a cell keeps several
    pieces or a shifted piece misses the origin from its kernel
    (MultiComponent, NotStarAtCenter), or the envelope pinches at the
    origin (DisconnectedUnion), the general route sums the hull with each
    piece by sweeping it along the piece's edges (_sum_hull_with_ring) and
    unites the sums in union_one_region.
    """
    hull = S.hull
    if isinstance(D, PointSeed):
        s0 = D.point
        cycles = [star_cycle(hull._scaled, c) for c in nearest_sites(S, s0)]
        return cycle_envelope(cycles, s0)
    pieces = cell_pieces(S, D._scaled)
    try:
        return minkowski_convex_star(hull, cycle_envelope(_star_cycles(pieces), ORIGIN))
    except (MultiComponent, NotStarAtCenter, DisconnectedUnion):
        return _p_step_general(hull, pieces)


def apply_operator(op: str, SS: Collection, Q: Seed) -> Region:
    """op's image of Q over the collection.

    g is one radial envelope around the origin of every member's
    _star_cycles, the union over all members and sites at once, so a
    member whose own union pinches at the origin needs no union of its
    own.  G takes the hull of each member's recentred pieces, which is the
    image of a single member, and unites several in one envelope around
    the origin, which every hull keeps in its kernel.  p takes each
    member's image (p_step).  P takes ch S plus the hull of each member's
    recentred cell_pieces of D, one convex walk, and for a point seed {s0}
    the hull of the translates ch S + s0 − c over the sites c nearest to
    s0, also where they meet only at s0.  The p family unites several
    members' images in one envelope around a center z that each image
    should hold in its kernel: s0 for a point seed, and otherwise the
    shared_site, a point of every member hull, which every image built
    from star-shaped pieces holds in its kernel once the region holds the
    hulls.  Where the members share no site, or an image misses z from
    its kernel, or the envelope pinches at z, the images go to
    union_one_region instead.
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    if op in ("g", "G"):
        _check_g_seed(Q)
        pieces = [_g_pieces(S, Q) for S in SS.members]
        if op == "g":
            return cycle_envelope([cy for p in pieces for cy in _star_cycles(p)], ORIGIN)
        hulls = [hull_of_rings(_recentred(p)) for p in pieces]
        if len(hulls) == 1:
            return hulls[0]
        return cycle_envelope([star_cycle(R._scaled, ORIGIN) for R in hulls], ORIGIN)
    if op == "p":
        parts = [p_step(S, Q) for S in SS.members]
    elif isinstance(Q, PointSeed):
        s0 = Q.point
        parts = [hull_of_rings([_shift(S.hull._scaled, s0 - c) for c in nearest_sites(S, s0)])
                 for S in SS.members]
    else:
        parts = [minkowski_convex_star(S.hull, hull_of_rings(_recentred(cell_pieces(S, Q._scaled))))
                 for S in SS.members]
    if len(parts) == 1:
        return parts[0]
    try:
        z = Q.point if isinstance(Q, PointSeed) else shared_site(SS)
        return cycle_envelope([star_cycle(R._scaled, z) for R in parts], z)
    except (KernelViolation, NotStarAtCenter, DisconnectedUnion):
        return union_one_region(parts)


# ---------------------------------------------------------------------------
# certified outer sets

def snap_rungs(Q: Region) -> Iterator[Region | None]:
    """Q's snapped ring at each rung D of SNAP_RUNGS with D * D <= Q.m,
    coarsest first: every coordinate snapped to the nearest fraction whose
    denominator is at most D, as a region, or None when no coordinate
    moves, when a vertex of Q lies outside the snapped ring, or when that
    ring is not a valid region (zero area or a self-intersecting boundary).

    Each distinct numerator x of Q's ring is snapped as x / Q.m by one
    continued-fraction walk that serves every rung (_limit_denominator),
    made when a rung first needs x, and the snapped ring goes over the lcm
    L of its reduced denominators.  The snap is monotone, so the snapped
    ring's least and greatest coordinates are the snaps of Q's own: where
    one of them moves inward, a vertex of Q lies outside, and the rung is
    refused after walking at most those four coordinates.  Q's ring is in
    lowest terms, so no coordinate moved exactly when the snapped ring is
    Q's own.  Q's vertices, over Q.m, are located in the raw snapped ring,
    over L, before the ring is validated: a valid ring bounds the
    candidate itself, and an invalid one is refused anyway.  A rung that
    snaps every coordinate as the last rung built did yields that rung's
    candidate again, the same object.
    """
    m, xs, ys = Q._scaled
    rungs = [D for D in SNAP_RUNGS if D * D <= m]
    if not rungs:
        return
    walks: dict[int, list[tuple[int, int]]] = {}

    def snapped(x: int, r: int) -> tuple[int, int]:
        if x not in walks:
            walks[x] = _limit_denominator(x, m, rungs)
        return walks[x][r]

    def inward(x: int, side: int, r: int) -> bool:
        p, q = snapped(x, r)
        return side * (p * m - x * q) > 0

    # Q's least and greatest coordinates, the low ones with side 1
    ends = ((min(xs), 1), (min(ys), 1), (max(xs), -1), (max(ys), -1))
    last: dict[int, tuple[int, int]] | None = None
    candidate = None
    for r in range(len(rungs)):
        if any(inward(x, side, r) for x, side in ends):
            yield None
            continue
        snap = {x: snapped(x, r) for x in {*xs, *ys}}
        if snap != last:
            candidate = _snapped_region(Q, snap)
            last = snap
        yield candidate


def _snapped_region(Q: Region, snap: dict[int, tuple[int, int]]) -> Region | None:
    m = Q.m
    L = lcm(*[d for _, d in snap.values()])
    xs = [n * (L // d) for n, d in map(snap.get, Q.xs)]
    ys = [n * (L // d) for n, d in map(snap.get, Q.ys)]
    if L == m and xs == list(Q.xs) and ys == list(Q.ys):
        return None
    snapped = (L, xs, ys)
    if any(ratios_in_ring(snapped, (x, m, y, m)) < 0 for x, y in zip(Q.xs, Q.ys)):
        return None
    try:
        return Region.from_integers(L, xs, ys)
    except GeometryError:
        return None


def _limit_denominator(x: int, m: int, bounds: list[int]) -> list[tuple[int, int]]:
    """For each bound D of the ascending list bounds, the nearest fraction
    to x / m (m > 0) with denominator at most D, reduced:
    Fraction(x, m).limit_denominator(D).as_integer_ratio() on integers
    alone, all from one continued-fraction walk.  The walk runs until the
    next convergent's denominator would pass D (x / m itself when it ends
    first).  Then the convergent p1 / q1 and the semiconvergent with the
    largest k that D allows lie on either side, 1 / (q1 (q0 + k q1))
    apart, with p1 / q1 at d / (q1 m) for the last remainder d, so p1 / q1
    wins, ties included as in CPython, when 2 d (q0 + k q1) <= m; the walk
    then goes on to the next bound.  A common factor of x and m changes
    neither the quotients nor d / m.
    """
    out = []
    todo = iter(bounds)
    D = next(todo)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = x, m
    while d:
        a = n // d
        q2 = q0 + a * q1
        while q2 > D:
            k = (D - q0) // q1
            if 2 * d * (q0 + k * q1) <= m:
                out.append((p1, q1))
            else:
                out.append((p0 + k * p1, q0 + k * q1))
            D = next(todo, None)
            if D is None:
                return out
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    return out + [(p1, q1)] * (len(bounds) - len(out))


def snap_candidate(op: str, Q: Region) -> Region | None:
    """The snap candidate that iterate carries from Q to the next
    iteration: the first of Q's snap_rungs, coarsest first, that holds Q,
    decided exactly; for g and G it must also keep the origin in its
    kernel (_check_g_seed's demand on their input), which is asked first.
    None when no rung offers one."""
    tried = None
    for C in snap_rungs(Q):
        if C is None or C is tried:
            continue
        tried = C
        if op in ("g", "G") and not C.kernel_contains(ORIGIN):
            continue
        if subset_witness(Q, C) is None:
            return C
    return None


def certify(op: str, SS: Collection, C: Region, Q: Region) -> Region | None:
    """op(C) when Q ⊆ C and op(C) ⊆ C, else None; op(C) is built only once
    Q ⊆ C holds.

    C is the candidate carried from the iterate before Q, which C holds,
    and Q is op of that iterate.  op is monotone, so for every invariant C
    that holds the iterate, Q ⊆ op(C) ⊆ C: a C that misses Q is not
    invariant, and its image is never built.  The chain through Q stays in
    C and its limit, the minimal invariant set, lies in op(C), which op
    also maps into itself.
    """
    if subset_witness(Q, C) is not None:
        return None
    image = apply_operator(op, SS, C)
    if subset_witness(image, C) is not None:
        return None
    return image


# ---------------------------------------------------------------------------
# the iteration engine

def iterate(op: str, SS: Collection, seed: Seed,
            max_iter: int = MAX_ITER) -> IterationResult:
    """Run op from seed to a fixed point or to a certified outer set.

    The reported iteration count is the smallest n >= 1 whose iterate is
    already invariant, confirmed by one further application.  Every iterate
    Q_n that is not yet known to be a fixed point is snapped at the rungs
    D = 16, 64, 256, 1024 with D * D <= Q_n.m, coarsest first, and the
    first candidate C that holds Q_n (snap_candidate) is carried to the
    next iteration.  There, once Q_n+1 differs from Q_n, so that a chain
    that reaches an exact fixed point stops there as it would without
    candidates, op(C) is built only when Q_n+1 lies in C, and the run
    stops certified when op(C) ⊆ C (certify).  It then reports n + 1
    iterations, ships op(C) and records the gap between op(C) and Q_n+1,
    which op(C) holds.  converged is False when max_iter runs out or the
    iterate's squared diameter passes the divergence threshold; a max_iter
    below 1 raises ValueError.
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    threshold = DIVERGENCE_FACTOR * max(S.hull.diameter_sq for S in SS.members)

    history: list[int] = []
    cur: Seed = seed
    candidate: Region | None = None
    for n in range(1, max_iter + 1):
        nxt = apply_operator(op, SS, cur)
        history.append(len(nxt))
        if isinstance(cur, Region) and equal_canonical(nxt, cur):
            return IterationResult(nxt, max(n - 1, 1), "fixed-point", history)
        if candidate is not None:
            outer = certify(op, SS, candidate, nxt)
            if outer is not None:
                return IterationResult(outer, n, "certified", history,
                                       outer.area2 - nxt.area2)
        # |a - b| <= 2 max |v| for any two vertices a, b, so the squared
        # diameter passes the threshold only where 4 max |v|^2 does, which
        # is decided before the pairwise maximum
        m, xs, ys = nxt._scaled
        reach = 4 * max(x * x + y * y for x, y in zip(xs, ys))
        if reach > threshold * (m * m) and nxt.diameter_sq > threshold:
            return IterationResult(nxt, n, "diverged", history)
        candidate = snap_candidate(op, nxt)
        cur = nxt
    # max_iter >= 1, so the loop ran and nxt is the last iterate
    return IterationResult(nxt, max_iter, "max-iterations", history)
