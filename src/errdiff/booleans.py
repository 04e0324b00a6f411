"""Exact clip, union, and containment for simple polygons.

clip_components is the one half-plane clipper: it returns every component
of a canonical ring cut by a half-plane.  It puts the ring over one common
denominator (or takes the caller's), computes each vertex's level against
the wall once (HalfPlane.levels), and reads the sides and every crossing
from those integers; only the crossings become new Fractions, and a ring
the wall keeps whole comes back as it was given.  errdiff.voronoi clips
into cells with it.  union_rings splits edges at every contact with the
other boundaries, keeps or drops the pieces by exact midpoint location
(point_in_ring on each ring's cached integers), and stitches them back
into cycles; a boundary that touches itself or leaves a hole raises
DisconnectedUnion.  union_one_region is the union the operators use: it
demands exactly one cycle; the p family's general route unites its hull
sweeps there.  Results are regularized: zero-area slivers and whiskers
vanish.  Unions of parts star-shaped around one center, and Minkowski sums
of a convex polygon with a star region, go through errdiff.starunion
instead.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .geometry import (
    DisconnectedUnion,
    HalfPlane,
    MultiComponent,
    Point,
    Region,
    Scaled,
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
# clip by half-plane

def clip_components(ring: Sequence[Point], hp: HalfPlane,
                    scaled: Scaled | None = None) -> list[Sequence[Point]]:
    """Exact intersection of a simple canonical ring with a closed half-plane.

    Returns canonical CCW rings, one per connected component with area; a
    ring the half-plane keeps whole is returned itself.  scaled, when the
    caller has it, is over_common_denominator(ring).  Over that common
    denominator m, vertex u has the integer level f(u) (HalfPlane.levels),
    whose sign is its side, and an edge u -> v whose levels have opposite
    signs crosses the wall at (f(u) v - f(v) u) / (f(u) - f(v)).
    """
    scaled = over_common_denominator(ring) if scaled is None else scaled
    levels = hp.levels(scaled)
    if all(f <= 0 for f in levels):
        return [ring]
    if all(f >= 0 for f in levels):
        return []

    m, xs, ys = scaled
    n = len(levels)
    # walk entries: (point, level, X, Y, D) with point == (X / D, Y / D)
    walk: list[tuple[Point, int, int, int, int]] = []
    for i in range(n):
        j = (i + 1) % n
        fu, fv = levels[i], levels[j]
        walk.append((ring[i], fu, xs[i], ys[i], m))
        if (fu > 0 and fv < 0) or (fu < 0 and fv > 0):
            X, Y, D = fu * xs[j] - fv * xs[i], fu * ys[j] - fv * ys[i], m * (fu - fv)
            walk.append((Point(Fraction(X, D), Fraction(Y, D)), 0, X, Y, D))

    k = len(walk)
    start = next(i for i in range(k) if walk[i][1] > 0)
    chains: list[list[tuple]] = []
    cur: list[tuple] = []
    for i in range(1, k + 1):
        w = walk[(start + i) % k]
        if w[1] <= 0:
            cur.append(w)
        else:
            if len(cur) >= 2:
                chains.append(cur)
            cur = []
    if len(cur) >= 2:
        chains.append(cur)
    if not chains:
        return []

    # boundary chords run along the clip line with the kept side on the
    # left, in the direction (-b, a); every chain end lies on the line
    A, B, _ = hp._abc

    def along(w: tuple) -> Fraction:
        return Fraction(A * w[3] - B * w[2], w[4])

    events: list[tuple[Fraction, int, int]] = []
    for ci, ch in enumerate(chains):
        events.append((along(ch[-1]), 0, ci))
        events.append((along(ch[0]), 1, ci))
    events.sort(key=lambda e: (e[0], e[1]))

    succ: dict[int, int] = {}
    for a, b in zip(events[0::2], events[1::2]):
        if a[1] != 0 or b[1] != 1:
            raise MultiComponent("clip produced a degenerate boundary contact")
        succ[a[2]] = b[2]

    seen: set[int] = set()
    comps: list[list[Point]] = []
    for ci in range(len(chains)):
        if ci in seen:
            continue
        pts: list[Point] = []
        cur_id = ci
        while cur_id not in seen:
            seen.add(cur_id)
            pts.extend(w[0] for w in chains[cur_id])
            cur_id = succ[cur_id]
        comp = canonicalize_ring(pts)
        if comp is not None:
            comps.append(comp)
    comps.sort(key=lambda r: [p.key() for p in r])
    return comps


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
