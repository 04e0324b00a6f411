"""Exact clip, union, and containment for simple polygons.

clip_components is the one clipper: it cuts a canonical ring, given over
its common denominator, by a sequence of closed half-planes (the walls of
a Voronoi cell) and returns every component of what is left.  It carries
each piece on integers from one wall to the next: a level per vertex and
wall, whose sign is the vertex's side, and every crossing as one reduced
integer triple (X, Y, D).  Only at the end does each component go over
its own common denominator and into canonical form; no Fraction is built.
g_step and p_step read the components on integers, and Points are built
only by errdiff.voronoi's one-component clip and p's general route.
union_rings splits edges at every contact with the other boundaries,
keeps or drops the pieces by exact midpoint location (point_in_ring on
each ring's cached integers), and stitches them back into cycles; a
boundary that touches itself or leaves a hole raises DisconnectedUnion.
union_one_region is the union the operators use: it demands exactly one
cycle; the p family unites its members there, and its general route its
hull sweeps.  Results are regularized: zero-area slivers and whiskers
vanish.  Unions of parts star-shaped around one center, and Minkowski
sums of a convex polygon with a star region, go through errdiff.starunion
instead.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .geometry import (
    DisconnectedUnion,
    HalfPlane,
    MultiComponent,
    Point,
    Region,
    Scaled,
    _canonical_order,
    bbox,
    bbox_overlap,
    canonicalize_ring,
    line_cross_point,
    on_segment,
    orient,
    over_common_denominator,
    point_in_ring,
)

HALF = Fraction(1, 2)


def seg_seg_points(p1: Point, p2: Point, q1: Point, q2: Point) -> list[Point]:
    """All isolated contact points and overlap endpoints of two segments."""
    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    if d1 == 0 and d2 == 0:
        out = []
        for w in (q1, q2):
            if on_segment(p1, p2, w):
                out.append(w)
        for w in (p1, p2):
            if on_segment(q1, q2, w) and w not in out:
                out.append(w)
        return out
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    out = []
    if d1 == 0 and on_segment(q1, q2, p1):
        out.append(p1)
    if d2 == 0 and on_segment(q1, q2, p2):
        out.append(p2)
    if d3 == 0 and on_segment(p1, p2, q1) and q1 not in out:
        out.append(q1)
    if d4 == 0 and on_segment(p1, p2, q2) and q2 not in out:
        out.append(q2)
    if (not out and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0
            and (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)):
        out.append(line_cross_point(p1, p2, q1, q2))
    return out


class _RingIndex:
    """A ring with cached boxes for repeated splitting and location queries.

    The ring box and the edge boxes are picked from the ring's own
    coordinates by comparing its integers over one common denominator, so
    no Fraction is compared or built.
    """

    __slots__ = ("ring", "scaled", "box", "edges")

    def __init__(self, ring: Sequence[Point]):
        self.ring = ring = list(ring)
        self.scaled = _, xs, ys = over_common_denominator(ring)
        n = len(ring)
        self.edges = []
        for i in range(n):
            j = (i + 1) % n
            u, v = ring[i], ring[j]
            x0, x1 = (u.x, v.x) if xs[i] <= xs[j] else (v.x, u.x)
            y0, y1 = (u.y, v.y) if ys[i] <= ys[j] else (v.y, u.y)
            self.edges.append((u, v, (x0, y0, x1, y1)))
        self.box = (ring[min(range(n), key=xs.__getitem__)].x,
                    ring[min(range(n), key=ys.__getitem__)].y,
                    ring[max(range(n), key=xs.__getitem__)].x,
                    ring[max(range(n), key=ys.__getitem__)].y)

    def locate(self, p: Point) -> int:
        xmin, ymin, xmax, ymax = self.box
        if p.x < xmin or p.x > xmax or p.y < ymin or p.y > ymax:
            return -1
        return point_in_ring(self.ring, p, self.scaled)


def _split_edge(u: Point, v: Point, others: Sequence[_RingIndex]) -> list[Point]:
    """Points of [u, v] split at every boundary contact, ordered from u to v."""
    seg_box = bbox((u, v))
    found: dict[tuple, Point] = {u.key(): u, v.key(): v}
    for other in others:
        if not bbox_overlap(seg_box, other.box):
            continue
        for q1, q2, ebox in other.edges:
            if not bbox_overlap(seg_box, ebox):
                continue
            for w in seg_seg_points(u, v, q1, q2):
                found[w.key()] = w
    d = v - u
    return sorted(found.values(), key=lambda p: (p - u).dot(d))


def _midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) * HALF, (p.y + q.y) * HALF)


# ---------------------------------------------------------------------------
# clip by half-planes

# A ring in the clipper: parallel sequences (xs, ys, ds, src).  Vertex i is
# the point (xs[i] / ds[i], ys[i] / ds[i]) with ds[i] > 0; src[i] is its
# index in the ring the clip started from, or -1 for a crossing.
_Ring = tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]
# A clipped component: (m, xs, ys, src), vertex i at (xs[i] / m, ys[i] / m)
Clipped = tuple[int, list[int], list[int], Sequence[int]]


def clip_components(scaled: Scaled, walls: Sequence[HalfPlane]) -> list[Clipped]:
    """Every component of a simple canonical ring cut by closed half-planes.

    scaled is the ring over its common denominator m.  Every piece of it
    is carried as integers from one wall to the next, each vertex u as a
    triple (x, y, d) with d > 0: u has the level f(u) = A x + B y - C d
    against the wall's integer triple (A, B, C), whose sign is its side,
    and an edge u -> v whose levels have opposite signs crosses the wall
    at the triple f(u) (x, y, d)_v - f(v) (x, y, d)_u, its sign turned so
    that d > 0 and reduced by its gcd.  A piece with no vertex strictly
    inside a wall has no area and goes.  Each surviving component comes
    back in canonical form (_canonical_order) over its own common
    denominator, the lcm of its reduced vertex denominators, with src
    naming the input vertex behind each of its vertices (-1 for a
    crossing).  A ring no wall cuts comes back as it was given, with src
    range(len(xs)).  The components come in no particular order.
    """
    m, xs, ys = scaled
    whole: _Ring = (xs, ys, [m] * len(xs), range(len(xs)))
    rings = [whole]
    for hp in walls:
        A, B, C = hp._abc
        cut: list[_Ring] = []
        for ring in rings:
            rxs, rys, rds, _ = ring
            levels = [A * x + B * y - C * d for x, y, d in zip(rxs, rys, rds)]
            if max(levels) <= 0:
                cut.append(ring)
            elif min(levels) < 0:
                cut.extend(_cut(ring, levels, A, B))
        rings = cut
        if not rings:
            return []
    if rings[0] is whole:
        return [(m, xs, ys, whole[3])]
    out = []
    for ring in rings:
        comp = _canonical(ring)
        if comp is not None:
            out.append(comp)
    return out


def _cut(ring: _Ring, levels: list[int], A: int, B: int) -> list[_Ring]:
    """The pieces of ring on the kept side of one wall that it crosses.

    The kept parts of the boundary are cut into chains that leave the wall
    line and come back to it; each chain end joins the next chain start
    along the line, in the direction (-B, A) that has the kept side on its
    left.
    """
    xs, ys, ds, src = ring
    n = len(levels)
    # walk the edges from an outside vertex once around: a chain is a run
    # of crossings and vertices with level <= 0; deep, whether one of its
    # vertices lies strictly inside
    chains: list[tuple[list[tuple[int, int, int, int]], bool]] = []
    cur: list[tuple[int, int, int, int]] = []
    deep = False
    i = levels.index(max(levels))
    for _ in range(n):
        j = i + 1 if i + 1 < n else 0
        fu, fv = levels[i], levels[j]
        if (fu > 0 > fv) or (fu < 0 < fv):
            X = fu * xs[j] - fv * xs[i]
            Y = fu * ys[j] - fv * ys[i]
            D = fu * ds[j] - fv * ds[i]
            g = gcd(X, Y, D) if D > 0 else -gcd(X, Y, D)
            cur.append((X // g, Y // g, D // g, -1))
        if fv <= 0:
            cur.append((xs[j], ys[j], ds[j], src[j]))
            deep = deep or fv < 0
        else:
            if len(cur) >= 2:
                chains.append((cur, deep))
            cur, deep = [], False
        i = j

    # the position of a chain end on the line, A y - B x over d, is compared
    # over the lcm of the ends' denominators
    ends = [w for ch, _ in chains for w in (ch[-1], ch[0])]
    L = lcm(*[w[2] for w in ends])
    events = sorted(((A * w[1] - B * w[0]) * (L // w[2]), kind, ci)
                    for ci, (ch, _) in enumerate(chains)
                    for kind, w in ((0, ch[-1]), (1, ch[0])))
    succ: dict[int, int] = {}
    for a, b in zip(events[0::2], events[1::2]):
        if a[1] != 0 or b[1] != 1:
            raise MultiComponent("clip produced a degenerate boundary contact")
        succ[a[2]] = b[2]

    seen: set[int] = set()
    pieces: list[_Ring] = []
    for ci in range(len(chains)):
        if ci in seen:
            continue
        piece: list[tuple[int, int, int, int]] = []
        deep = False
        cur_id = ci
        while cur_id not in seen:
            seen.add(cur_id)
            ch, ch_deep = chains[cur_id]
            piece.extend(ch)
            deep = deep or ch_deep
            cur_id = succ[cur_id]
        # a piece with no vertex strictly inside lies on the line: no area
        if deep:
            pxs, pys, pds, psrc = zip(*piece)
            pieces.append((pxs, pys, pds, psrc))
    return pieces


def _canonical(ring: _Ring) -> Clipped | None:
    """ring in canonical form over the lcm of its reduced denominators."""
    xs, ys, ds, src = ring
    red = []
    for x, y, d in zip(xs, ys, ds):
        g = gcd(x, y, d)
        red.append((x // g, y // g, d // g))
    m = lcm(*[d for _, _, d in red])
    cxs = [x * (m // d) for x, _, d in red]
    cys = [y * (m // d) for _, y, d in red]
    order = _canonical_order(cxs, cys)
    if order is None:
        return None
    return (m, [cxs[i] for i in order], [cys[i] for i in order],
            [src[i] for i in order])


# ---------------------------------------------------------------------------
# containment

def subset_witness(a_ring: Sequence[Point], b_ring: Sequence[Point]) -> Point | None:
    """A point of region(a) outside region(b), or None when a is contained.

    Exact for simple polygons, where containment reduces to boundary
    containment: an interior point of a outside b would connect to infinity
    through the complement of b, and that path crosses the boundary of a at
    a point outside b. It suffices to check the vertices of a and one
    interior point of every piece of a's edges split at contacts with b's
    boundary.
    """
    B = _RingIndex(b_ring)
    for v in a_ring:
        if B.locate(v) < 0:
            return v
    n = len(a_ring)
    for i in range(n):
        pts = _split_edge(a_ring[i], a_ring[(i + 1) % n], (B,))
        for p, q in zip(pts, pts[1:]):
            if p == q:
                continue
            mid = _midpoint(p, q)
            if B.locate(mid) < 0:
                return mid
    return None


def subset(a, b) -> bool:
    """Exact containment region(a) within region(b) (closed sets)."""
    a_ring = a.vertices if isinstance(a, Region) else a
    b_ring = b.vertices if isinstance(b, Region) else b
    return subset_witness(a_ring, b_ring) is None


# ---------------------------------------------------------------------------
# union

def union_rings(rings: Sequence[Sequence[Point]]) -> list[list[Point]]:
    """Union of simple CCW rings, as canonical CCW boundary cycles.

    A boundary that touches itself raises DisconnectedUnion, and so does a
    hole: the engine has no polygon-with-holes representation.
    """
    idx = [_RingIndex(r) for r in rings]
    kept: list[tuple[Point, Point]] = []
    for i, I in enumerate(idx):
        near = [(j, J) for j, J in enumerate(idx)
                if j != i and bbox_overlap(I.box, J.box)]
        others = [J for _, J in near]
        for u, v, _ in I.edges:
            pts = _split_edge(u, v, others)
            for p, q in zip(pts, pts[1:]):
                if p == q:
                    continue
                mid = _midpoint(p, q)
                keep = True
                for j, J in near:
                    loc = J.locate(mid)
                    if loc > 0:
                        keep = False
                        break
                    if loc == 0:
                        side = _collinear_side(mid, u, v, J)
                        if side < 0:  # opposite interiors: covered both sides
                            keep = False
                            break
                        if side > 0 and j < i:  # duplicate; lowest index wins
                            keep = False
                            break
                if keep:
                    kept.append((p, q))
    return _stitch(kept)


def _collinear_side(mid: Point, u: Point, v: Point, J: _RingIndex) -> int:
    """mid lies on an edge of J collinear with u->v: +1 same interior side,
    -1 opposite. Returns 0 when no containing edge is found (never expected
    for split midpoints)."""
    for w1, w2, ebox in J.edges:
        if not (ebox[0] <= mid.x <= ebox[2] and ebox[1] <= mid.y <= ebox[3]):
            continue
        if on_segment(w1, w2, mid):
            return 1 if (w2 - w1).dot(v - u) > 0 else -1
    return 0


def _stitch(kept: list[tuple[Point, Point]]) -> list[list[Point]]:
    outgoing: dict[tuple, tuple[Point, Point]] = {}
    for seg in kept:
        key = seg[0].key()
        if key in outgoing:
            raise DisconnectedUnion("union boundary touches itself")
        outgoing[key] = seg

    # every vertex starts at most one segment, so a start key names it
    used: set[tuple] = set()
    cycles: list[list[Point]] = []
    for start in sorted(outgoing):
        if start in used:
            continue
        cur = outgoing[start]
        path: list[Point] = [cur[0]]
        while cur is not None and cur[0].key() not in used:
            used.add(cur[0].key())
            path.append(cur[1])
            cur = outgoing.get(cur[1].key())
        if path[0] != path[-1]:
            raise DisconnectedUnion("union boundary has a dangling chain")
        ring = canonicalize_ring(path[:-1])
        if ring is not None:
            cycles.append(ring)
    # canonical rings are all CCW, so a hole shows up as a cycle nested inside
    # another; filtered vertices of genuine sibling lobes never lie strictly
    # inside a neighbor
    scaled = [over_common_denominator(r) for r in cycles]
    for i, r1 in enumerate(cycles):
        for j, r2 in enumerate(cycles):
            if i != j and any(point_in_ring(r2, v, scaled[j]) > 0 for v in r1):
                raise DisconnectedUnion("union produced a hole")
    return cycles


def union_one_region(rings: Sequence[Sequence[Point]]) -> Region:
    """Union of simple CCW rings that must be exactly one cycle.

    Raises DisconnectedUnion otherwise.  A single cycle that passed the
    touch and hole tests of union_rings is simple, so the Region is built
    without a second simplicity test.
    """
    cycles = union_rings(rings)
    if len(cycles) != 1:
        raise DisconnectedUnion(f"union has {len(cycles)} components")
    return Region.from_ring(cycles[0], validate=False)
