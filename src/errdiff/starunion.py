"""Union of polygons that are star-shaped around a common center.

Every input must keep the center in its kernel. The union is then a radial
envelope: sweeping a ray around the center, the union boundary is the
farthest input boundary along each direction.  cycle_envelope builds it
from closed polygonal cycles on integers, each relative to the center and
over its own denominator: it drops the edges on a line through the center,
cuts the rest into chains that turn one way around the center, packs
chains that do not overlap in angle into one fan, and merges the fans.  The
merge walks two fans as angular chains and keeps the outer one, splitting
at exact crossings. Directions with no coverage are gaps; a single gap
closes through the center, two or more mean the union pinches there and
has no simple boundary.

The cycles are the boundaries of the parts of a union (union_star, the
g and p steps' clipped pieces, and p's hull shifts for a point seed),
each put relative to the center by star_cycle, which also checks that
the center is in the part's kernel; or the convolution cycle of a
Minkowski sum, whose edges may turn either way.

The merge runs on integers only.  A fan vertex is a reduced integer triple
(x, y, d) with d > 0, the point (x / d, y / d), carried with its reduced
integer direction.  Each covering edge's line is put over the common
denominator of its two ends, and two lines are compared along a ray by
cross-multiplying; the boundary point on a ray (_limit) and the crossing of
two lines (_crossing) come back as reduced triples.  Points are built once,
for the output ring (_envelope).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Sequence

from .geometry import (
    DisconnectedUnion,
    NotStarAtCenter,
    Point,
    Region,
    Scaled,
    over_common_denominator,
)

Dir = tuple[int, int]
Triple = tuple[int, int, int]
Vertex = tuple[Triple, Dir]
# (xs, ys, m): the points (xs[i] / m, ys[i] / m) relative to the center
Cycle = tuple[Sequence[int], Sequence[int], int]


def _dir_cmp(a: Dir, b: Dir) -> int:
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return -1 if ha < hb else 1
    cr = a[0] * b[1] - a[1] * b[0]
    return (cr < 0) - (cr > 0)


def _before(s: Dir, a: Dir, b: Dir) -> bool:
    """True when a comes strictly before b turning counterclockwise from s,
    angles taken in [0, 2 pi)."""
    def half(d: Dir) -> int:
        cr = s[0] * d[1] - s[1] * d[0]
        return 0 if cr > 0 or (cr == 0 and s[0] * d[0] + s[1] * d[1] > 0) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return ha < hb
    return a[0] * b[1] - a[1] * b[0] > 0


def _overlap(a: tuple[Dir, Dir], b: tuple[Dir, Dir]) -> bool:
    """Whether two counterclockwise angular spans (start, end), each short
    of a full turn, share more than an end direction."""
    return _before(a[0], b[0], a[1]) or _before(b[0], a[0], b[1])


@dataclass
class _Fan:
    """Boundary of a star set around the origin, minus the origin caps.

    chains: angular runs of boundary vertices in CCW order; consecutive
    vertices of a chain either subtend a positive angle at the origin or
    sit on one ray (a radial jump). full means one chain wrapping all
    directions.
    """
    chains: list[list[Vertex]]
    full: bool


class _Edge:
    """A fan edge a -> b between triples, and its line in integers.

    With a and b over the common denominator den, the line meets the ray
    of direction u at t(u) * u for t(u) = n / (den * (ux*dy - uy*dx)).
    ka and kb index the directions of a and b in the merge's event list.
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


def _t_cmp(u: Dir, ea: _Edge, eb: _Edge) -> int:
    """Sign of t_a(u) - t_b(u): +1 when line a meets the ray u farther out.

    Cross-multiplied over den * c for c = ux*dy - uy*dx; den is positive,
    so the signs of the two c decide whether the comparison flips.
    """
    ca = u[0] * ea.dy - u[1] * ea.dx
    cb = u[0] * eb.dy - u[1] * eb.dx
    t = ea.n * eb.den * cb - eb.n * ea.den * ca
    s = (t > 0) - (t < 0)
    return s if (ca > 0) == (cb > 0) else -s


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


def _assign(fan: _Fan, uidx: dict[Dir, int], m: int) -> list[_Edge | None]:
    """Covering edge of the fan for each angular arc between adjacent events."""
    arcs: list[_Edge | None] = [None] * m
    for chain in fan.chains:
        n = len(chain)
        limit = n if fan.full else n - 1
        for e in range(limit):
            (a, da), (b, db) = chain[e], chain[(e + 1) % n]
            ka, kb = uidx[da], uidx[db]
            if ka == kb:
                continue
            edge = _Edge(a, b, ka, kb)
            k = ka
            while k != kb:
                arcs[k] = edge
                k = (k + 1) % m
    return arcs


def _limit(arcs: list[_Edge | None], k: int, d: Dir, side: int) -> Triple:
    """Boundary point at event k approached from the left (side=0) or the
    right (side=1)."""
    if side == 0:
        edge = arcs[k - 1]
        if edge.kb == k:
            return edge.b
    else:
        edge = arcs[k]
        if edge.ka == k:
            return edge.a
    n = edge.n
    D = edge.den * (d[0] * edge.dy - d[1] * edge.dx)
    if D < 0:
        n, D = -n, -D
    g = gcd(n, D)
    return (d[0] * (n // g), d[1] * (n // g), D // g)


def _merge(A: _Fan, B: _Fan) -> _Fan:
    dirs: set[Dir] = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for fan in (A, B):
        for chain in fan.chains:
            dirs.update(d for _, d in chain)
    U = sorted(dirs, key=cmp_to_key(_dir_cmp))
    m = len(U)
    uidx = {d: k for k, d in enumerate(U)}

    arcs_a = _assign(A, uidx, m)
    arcs_b = _assign(B, uidx, m)

    start_owner = [0] * m   # owner entering the arc: 0 A, 1 B, -1 gap
    end_owner = [0] * m
    cross_pt: list[Vertex | None] = [None] * m
    for k in range(m):
        ea, eb = arcs_a[k], arcs_b[k]
        if ea is None and eb is None:
            start_owner[k] = end_owner[k] = -1
        elif eb is None:
            start_owner[k] = end_owner[k] = 0
        elif ea is None:
            start_owner[k] = end_owner[k] = 1
        else:
            s1 = _t_cmp(U[k], ea, eb)
            s2 = _t_cmp(U[(k + 1) % m], ea, eb)
            first = 0 if (s1 or s2) >= 0 else 1
            second = first if s2 == 0 else (0 if s2 > 0 else 1)
            start_owner[k], end_owner[k] = first, second
            if first != second:
                cross_pt[k] = _crossing(ea, eb)

    ems: list[Vertex] = []
    gap_marks: list[int] = []

    def emit(p: Triple, d: Dir) -> None:
        if not ems or ems[-1][0] != p:
            ems.append((p, d))

    both = (arcs_a, arcs_b)
    for k in range(m):
        o_prev = end_owner[k - 1]
        o_next = start_owner[k]
        d = U[k]
        if o_prev == -1 and o_next == -1:
            pass
        elif o_prev == -1:
            gap_marks.append(len(ems))
            emit(_limit(both[o_next], k, d, 1), d)
        elif o_next == -1:
            emit(_limit(both[o_prev], k, d, 0), d)
        elif o_prev == o_next:
            arcs = both[o_prev]
            if arcs[k - 1] is not arcs[k]:
                emit(_limit(arcs, k, d, 0), d)
                emit(_limit(arcs, k, d, 1), d)
        else:
            emit(_limit(both[o_prev], k, d, 0), d)
            emit(_limit(both[o_next], k, d, 1), d)
        w = cross_pt[k]
        if w is not None:
            emit(*w)

    if not gap_marks:
        if len(ems) > 1 and ems[0][0] == ems[-1][0]:
            ems.pop()
        return _Fan([ems], True)
    chains: list[list[Vertex]] = []
    marks = gap_marks + [gap_marks[0] + len(ems)]
    for a, b in zip(marks, marks[1:]):
        chain = [ems[t % len(ems)] for t in range(a, b)]
        if len(chain) >= 2:
            chains.append(chain)
    return _Fan(chains, False)


def _envelope(fans: list[_Fan], center: Point) -> Region:
    """Radial envelope of fans around center, their vertices taken relative
    to it, as a Region with center as its reference."""
    # balanced merge order keeps any one fan from being rescanned per part
    while len(fans) > 1:
        paired = [_merge(fans[i], fans[i + 1])
                  for i in range(0, len(fans) - 1, 2)]
        if len(fans) % 2:
            paired.append(fans[-1])
        fans = paired
    merged = fans[0]
    if len(merged.chains) != 1:
        raise DisconnectedUnion("parts meet only at the center")
    cxn, cxd = center.x.as_integer_ratio()
    cyn, cyd = center.y.as_integer_ratio()
    ring = [Point(Fraction(x * cxd + cxn * d, d * cxd),
                  Fraction(y * cyd + cyn * d, d * cyd))
            for (x, y, d), _ in merged.chains[0]]
    if not merged.full:
        ring.append(center)
    return Region.from_ring(ring, reference=center)


def star_cycle(scaled: Scaled, center: Point) -> Cycle:
    """A CCW ring (m, xs, ys), over its common denominator, as a cycle
    relative to center over the lcm of m and center's denominators.

    Raises NotStarAtCenter when an edge turns clockwise around center,
    that is when center is outside the ring's kernel.
    """
    m, xs, ys = scaled
    cxn, cxd = center.x.as_integer_ratio()
    cyn, cyd = center.y.as_integer_ratio()
    if cxn or cyn:
        M = lcm(m, cxd, cyd)
        k, ox, oy = M // m, cxn * (M // cxd), cyn * (M // cyd)
        xs = [x * k - ox for x in xs]
        ys = [y * k - oy for y in ys]
        m = M
    if any(xs[i - 1] * ys[i] < ys[i - 1] * xs[i] for i in range(len(xs))):
        raise NotStarAtCenter("center is outside a part's kernel")
    return xs, ys, m


def union_star(parts: Sequence, center: Point) -> Region:
    """Union of regions or CCW Point rings star-shaped around a common
    center point.

    Raises NotStarAtCenter when a part does not keep the center in its
    kernel, DisconnectedUnion when the union only meets at the center,
    DegenerateRegion when the union has no area.
    """
    return cycle_envelope(
        [star_cycle(part._scaled if isinstance(part, Region)
                    else over_common_denominator(part), center)
         for part in parts], center)


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


def cycle_envelope(cycles: Sequence[Cycle], center: Point) -> Region:
    """Radial envelope around center of closed polygonal cycles, each
    (xs, ys, m) through the points center + (xs[i] / m, ys[i] / m).

    The caller vouches that every cycle point lies in one closed set that is
    star-shaped around center and whose boundary lies on the cycles; the
    envelope is then that set.  Each cycle is cut into chains (_chains),
    and chains that do not overlap in angle share a fan.
    """
    # chains go first-fit into fans whose chains they do not overlap in angle
    fans: list[_Fan] = []
    spans: list[list[tuple[Dir, Dir]]] = []
    for xs, ys, m in cycles:
        for chain in _chains(xs, ys):
            run = [_vertex(xs[i], ys[i], m) for i in chain]
            span = (run[0][1], run[-1][1])
            for fan, taken in zip(fans, spans):
                if not any(_overlap(span, t) for t in taken):
                    fan.chains.append(run)
                    taken.append(span)
                    break
            else:
                fans.append(_Fan([run], False))
                spans.append([span])
    if len(fans) == 1 and len(fans[0].chains) > 1:
        # chains that only touch end to end still need a merge to join them
        fans.append(_Fan([fans[0].chains.pop()], False))
    return _envelope(fans, center)
