"""Union of polygons that are star-shaped around a common center.

Every input must keep the center in its kernel. The union is then a radial
envelope: sweeping a ray around the center, the union boundary is the
farthest input boundary along each direction.  cycle_envelope builds it
from closed polygonal cycles on integers, each relative to the center and
over its own denominator, in one angular sweep.  It drops the edges on a
line through the center and cuts the rest into chains that turn one way
around the center.  The directions of all chain vertices, with the four
axes, cut the turn into arcs shorter than a half turn, and each chain edge
goes into every arc it spans, with its ray product r = den (u × d) at each
direction u it spans computed once.  In each arc the outermost edge is
followed from one end to the other, handing over at exact crossings
(_arc), which ranks two edges' lines along a ray by their n / r: the
radial form of the envelope of line segments (Hershberger, Inf. Process.
Lett. 33(4), 1989).  Arcs that no edge spans are gaps; a single gap closes
through the center, two or more mean the union pinches there and has no
simple boundary.

Each cycle is a ring (m, xs, ys), geometry's Scaled order.  The cycles
are the boundaries of the parts of a union, each put relative to the
center by star_cycle, which also checks that the center is in the
part's kernel: every member's cell pieces at once for g, one member's
for p, p's hull shifts for a point seed, the member hulls of G and the
member images of p and P.  Or a cycle is the convolution cycle of a
Minkowski sum, whose edges may turn either way.  p's pieces go to
booleans.union_one_region, the general union, where they have no common
center or their envelope pinches, and the p family's member images where
they have no common center.

The sweep runs on integers only.  A chain vertex is a reduced integer
triple (x, y, d) with d > 0, the point (x / d, y / d), carried with its
reduced integer direction.  Each edge's line is put over the common
denominator of its two ends, and two lines are compared along a ray by
cross-multiplying their n / r; the boundary point on a ray (_limit) and
the crossing of two lines (_crossing) come back as reduced triples.  The
output ring goes over the lcm of its triples' denominators, moved back by
the center, to Region.from_integers: no Point is built.
"""
from __future__ import annotations

from functools import cmp_to_key
from math import gcd, lcm
from typing import Sequence

from .geometry import (
    DisconnectedUnion,
    NotStarAtCenter,
    Point,
    Region,
    Scaled,
    _shift,
)

Dir = tuple[int, int]
Triple = tuple[int, int, int]
Vertex = tuple[Triple, Dir]


def _dir_cmp(a: Dir, b: Dir) -> int:
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return -1 if ha < hb else 1
    cr = a[0] * b[1] - a[1] * b[0]
    return (cr < 0) - (cr > 0)


class _Edge:
    """A chain edge a -> b between triples, and its line in integers.

    With a and b over the common denominator den, the line meets the ray
    of direction u at t(u) * u for t(u) = n / (den * (ux*dy - uy*dx)).
    ka and kb index the directions of a and b in the sweep's event list.
    """

    __slots__ = ("a", "b", "ka", "kb", "n", "den", "dx", "dy")

    def __init__(self, a: Triple, b: Triple, ka: int, kb: int):
        self.a, self.b, self.ka, self.kb = a, b, ka, kb
        ax, ay, ad = a
        bx, by, bd = b
        den = lcm(ad, bd)
        sa, sb = den // ad, den // bd
        ax, ay, bx, by = ax * sa, ay * sa, bx * sb, by * sb
        self.n = ax * by - ay * bx
        self.den = den
        self.dx = bx - ax
        self.dy = by - ay


def _crossing(ea: _Edge, eb: _Edge) -> Vertex:
    """The crossing of two edges' lines, which must not be parallel.

    Edge e's line is den_e (x dy_e - y dx_e) = n_e; Cramer's rule gives the
    crossing as (X / D, Y / D).
    """
    D = ea.den * eb.den * (ea.dx * eb.dy - ea.dy * eb.dx)
    sa, sb = eb.n * ea.den, ea.n * eb.den
    X = sa * ea.dx - sb * eb.dx
    Y = sa * ea.dy - sb * eb.dy
    if D < 0:
        X, Y, D = -X, -Y, -D
    h = gcd(X, Y)
    g = gcd(h, D)
    return (X // g, Y // g, D // g), (X // h, Y // h)


def _limit(edge: _Edge, k: int, d: Dir) -> Triple:
    """The point of edge's line on the ray d, the direction of event k."""
    if edge.ka == k:
        return edge.a
    if edge.kb == k:
        return edge.b
    n = edge.n
    D = edge.den * (d[0] * edge.dy - d[1] * edge.dx)
    if D < 0:
        n, D = -n, -D
    g = gcd(n, D)
    return (d[0] * (n // g), d[1] * (n // g), D // g)


def _arc(es: list[tuple[_Edge, int, int]]) -> tuple[_Edge, _Edge, list[Vertex]]:
    """The envelope over the arc from u to w, which every edge of es spans:
    the outermost edge entering at u, the one leaving at w, and the
    crossings where one hands over to the next, in angular order.

    An entry (e, r_u, r_w) holds r = den (x × d) of e at x = u and x = w:
    e's line meets the ray x at n_e / r, and r > 0, for a chain edge turns
    counter-clockwise and spans less than a half turn; so f lies farther
    out than e exactly when n_f r_e > n_e r_f.  The next edge is the one
    that overtakes the current one first before w; two lines cross at most
    once in an arc short of a half turn.  Ties go to the edge outermost at
    w, so each handover moves strictly forward in angle and no crossing
    repeats.
    """
    e, eu, ew = es[0]
    for f, fu, fw in es[1:]:
        s = f.n * eu - e.n * fu
        if s > 0 or (s == 0 and f.n * ew > e.n * fw):
            e, eu, ew = f, fu, fw
    first, crossings = e, []
    # only an edge farther out at w than the current one can still overtake
    rest = [(f, fw) for f, _, fw in es if f.n * ew > e.n * fw]
    while rest:
        best = None
        for f, fw in rest:
            x = _crossing(e, f)
            if best is not None:
                (px, py), (qx, qy) = x[1], cross[1]
                c = px * qy - py * qx
                if c < 0 or (c == 0 and f.n * bw <= best.n * fw):
                    continue
            best, bw, cross = f, fw, x
        crossings.append(cross)
        e, ew = best, bw
        rest = [(f, fw) for f, fw in rest if f.n * ew > e.n * fw]
    return first, e, crossings


def star_cycle(scaled: Scaled, center: Point) -> Scaled:
    """A CCW ring (m, xs, ys), over its common denominator, as a ring
    relative to center over the lcm of m and center's denominators.

    Raises NotStarAtCenter when an edge turns clockwise around center,
    that is when center is outside the ring's kernel.
    """
    m, xs, ys = _shift(scaled, -center) if center.x or center.y else scaled
    if any(xs[i - 1] * ys[i] < ys[i - 1] * xs[i] for i in range(len(xs))):
        raise NotStarAtCenter("center is outside a part's kernel")
    return m, xs, ys


def _chains(xs: Sequence[int], ys: Sequence[int]) -> list[list[int]]:
    """The integer cycle (xs, ys) around the origin cut into chains of
    indices, each turning one way and short of a full turn, in CCW order.

    Edges on a line through the origin are dropped; clockwise chains are
    reversed.
    """
    n = len(xs)
    turns = []
    for i in range(n):
        j = (i + 1) % n
        cr = xs[i] * ys[j] - ys[i] * xs[j]
        turns.append((cr > 0) - (cr < 0))
    # start where a chain must begin anyway, so none wraps past the start
    first = next((i for i in range(n) if turns[i] and turns[i] != turns[i - 1]), 0)
    out: list[list[int]] = []
    chain: list[int] = []
    sign = half = 0
    sx = sy = 0
    for t in range(n):
        i = (first + t) % n
        j = (i + 1) % n
        s = turns[i]
        if chain and s == sign:
            # half: whether the chain has turned by at least a half-turn from
            # its start direction (sx, sy); coming back to the start's half
            # after that would close a full turn
            cr = s * (sx * ys[j] - sy * xs[j])
            h = 0 if cr > 0 or (cr == 0 and sx * xs[j] + sy * ys[j] > 0) else 1
            if not (half and not h):
                chain.append(j)
                half = h
                continue
        if chain:
            out.append(chain if sign > 0 else chain[::-1])
            chain = []
        if s:
            chain, sign, half = [i, j], s, 0
            sx, sy = xs[i], ys[i]
    if chain:
        out.append(chain if sign > 0 else chain[::-1])
    return out


def _vertex(x: int, y: int, m: int) -> Vertex:
    """The point (x / m, y / m), not the origin, as a reduced triple with
    its reduced direction."""
    h = gcd(x, y)
    g = gcd(h, m)
    return (x // g, y // g, m // g), (x // h, y // h)


def cycle_envelope(cycles: Sequence[Scaled], center: Point) -> Region:
    """Radial envelope around center of closed polygonal cycles, each
    (m, xs, ys) through the points center + (xs[i] / m, ys[i] / m).

    The caller vouches that every cycle point lies in one closed set that is
    star-shaped around center and whose boundary lies on the cycles; the
    envelope is then that set.  Each cycle is cut into chains (_chains);
    one sorted list of directions, and one pass over it, serve all chains.
    Raises DisconnectedUnion when two or more gaps cut the envelope apart.
    """
    runs = [[_vertex(xs[i], ys[i], m) for i in chain]
            for m, xs, ys in cycles for chain in _chains(xs, ys)]
    dirs = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for run in runs:
        dirs.update(d for _, d in run)
    U = sorted(dirs, key=cmp_to_key(_dir_cmp))
    m = len(U)
    uidx = {d: k for k, d in enumerate(U)}
    arcs: list[list[tuple[_Edge, int, int]]] = [[] for _ in range(m)]
    for run in runs:
        for (a, da), (b, db) in zip(run, run[1:]):
            ka, kb = uidx[da], uidx[db]
            edge = _Edge(a, b, ka, kb)
            den, dx, dy = edge.den, edge.dx, edge.dy
            k, r = ka, den * (da[0] * dy - da[1] * dx)
            while k != kb:
                k1 = k + 1 if k + 1 < m else 0
                r1 = den * (U[k1][0] * dy - U[k1][1] * dx)
                arcs[k].append((edge, r, r1))
                k, r = k1, r1
    pieces = [_arc(es) if es else None for es in arcs]

    ring: list[Triple] = []
    gaps: list[int] = []   # where the ring resumes after each gap

    def emit(p: Triple) -> None:
        if not ring or ring[-1] != p:
            ring.append(p)

    # at each direction the boundary steps from the edge leaving the arc
    # before it to the edge entering the arc after it
    for k in range(m):
        before, after = pieces[k - 1], pieces[k]
        leave = before[1] if before else None
        enter = after[0] if after else None
        if leave is not enter:
            if leave is not None:
                emit(_limit(leave, k, U[k]))
            if enter is not None:
                if leave is None:
                    gaps.append(len(ring))
                emit(_limit(enter, k, U[k]))
        if after:
            for p, _ in after[2]:
                emit(p)
    if len(gaps) > 1:
        raise DisconnectedUnion("parts meet only at the center")
    if gaps:
        ring = ring[gaps[0]:] + ring[:gaps[0]]
    L = lcm(*[d for _, _, d in ring])
    xs = [x * (L // d) for x, _, d in ring]
    ys = [y * (L // d) for _, y, d in ring]
    if gaps:
        xs.append(0)
        ys.append(0)
    return Region.from_integers(*_shift((L, xs, ys), center))
