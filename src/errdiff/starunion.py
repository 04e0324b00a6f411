"""Union of polygons that are star-shaped around a common center.

Every input must keep the center in its kernel. The union is then a radial
envelope: sweeping a ray around the center, the union boundary is the
farthest input boundary along each direction. The merge walks the two
boundaries as angular chains and keeps the outer one, splitting at exact
crossings. Directions with no coverage are gaps; a single gap closes through
the center, two or more mean the union pinches there and has no simple
boundary.

The same envelope bounds a Minkowski sum: cycle_envelope takes a closed
polygonal cycle on integers, such as the convolution cycle of a convex
polygon and a star region, cuts it into chains that turn one way around the
center, packs chains that do not overlap in angle into one fan, and merges
the fans like the parts of a union (_envelope, shared with union_star).

The merge decides everything on integer numerators and denominators. Each
chain point carries its reduced integer direction, each covering edge's line
is put over one common denominator once per merge, and two lines are
compared along a ray by cross-multiplying. New Fraction points are built
only for emitted vertices (_limit) and for crossings (line_cross_point).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Sequence

from .geometry import (
    ORIGIN,
    DisconnectedUnion,
    NotStarAtCenter,
    Point,
    Region,
    line_cross_point,
)

Dir = tuple[int, int]
Vertex = tuple[Point, Dir]


def _dir_key(p: Point) -> Dir:
    """Reduced integer direction of p from the center; (0, 0) for the center."""
    dx = p.x.numerator * p.y.denominator
    dy = p.y.numerator * p.x.denominator
    g = gcd(dx, dy) or 1
    return (dx // g, dy // g)


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

    chains: angular runs of boundary points in CCW order, each carried with
    its direction key; consecutive points of a chain either subtend a
    positive angle at the origin or sit on one ray (a radial jump). full
    means one chain wrapping all directions.
    """
    chains: list[list[Vertex]]
    full: bool


def _fan_of(ring: Sequence[Point]) -> _Fan:
    """Ring is canonical CCW; raises NotStarAtCenter unless the origin is
    in its kernel."""
    ring = [(p, _dir_key(p)) for p in ring]
    n = len(ring)
    breaks: list[int] = []
    for i in range(n):
        (ux, uy), (vx, vy) = ring[i][1], ring[(i + 1) % n][1]
        cr = ux * vy - uy * vx
        if cr < 0:
            raise NotStarAtCenter("center is outside a part's kernel")
        if cr == 0 and ux * vx + uy * vy <= 0:
            breaks.append(i)
    if not breaks:
        return _Fan([ring], True)
    if len(breaks) == 1:
        i = breaks[0]
        start = (i + 1) % n
        return _Fan([[ring[(start + k) % n] for k in range(n)]], False)
    if len(breaks) == 2:
        i, j = breaks
        if j == i + 1 and ring[j][0] == ORIGIN:
            start = (j + 1) % n
        elif i == 0 and j == n - 1 and ring[0][0] == ORIGIN:
            start = 1
        else:
            raise NotStarAtCenter("boundary pinches at the center")
        return _Fan([[ring[(start + k) % n] for k in range(n - 1)]], False)
    raise NotStarAtCenter("boundary pinches at the center")


class _Edge:
    """A fan edge a -> b and its line in integers.

    With a and b over the common denominator den, the line meets the ray
    of direction u at t(u) * u for t(u) = n / (den * (ux*dy - uy*dx)).
    ka and kb index the directions of a and b in the merge's event list.
    """

    __slots__ = ("a", "b", "ka", "kb", "n", "den", "dx", "dy")

    def __init__(self, a: Point, b: Point, ka: int, kb: int):
        self.a, self.b, self.ka, self.kb = a, b, ka, kb
        den = lcm(a.x.denominator, a.y.denominator,
                  b.x.denominator, b.y.denominator)
        ax = a.x.numerator * (den // a.x.denominator)
        ay = a.y.numerator * (den // a.y.denominator)
        bx = b.x.numerator * (den // b.x.denominator)
        by = b.y.numerator * (den // b.y.denominator)
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


def _limit(arcs: list[_Edge | None], k: int, d: Dir, side: int) -> Point:
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
    den = edge.den * (d[0] * edge.dy - d[1] * edge.dx)
    return Point(Fraction(d[0] * edge.n, den), Fraction(d[1] * edge.n, den))


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
    cross_pt: list[Point | None] = [None] * m
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
                cross_pt[k] = line_cross_point(ea.a, ea.b, eb.a, eb.b)

    ems: list[Vertex] = []
    gap_marks: list[int] = []

    def emit(p: Point, d: Dir) -> None:
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
            emit(w, _dir_key(w))

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
    """Radial envelope of fans around center, their points taken relative
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
    ring = [p for p, _ in merged.chains[0]]
    if not merged.full:
        ring.append(ORIGIN)
    if center != ORIGIN:
        ring = [p + center for p in ring]
    return Region.from_ring(ring, reference=center)


def union_star(parts: Sequence, center: Point) -> Region:
    """Union of regions star-shaped around a common center point.

    Raises NotStarAtCenter when a part does not keep the center in its
    kernel, DisconnectedUnion when the union only meets at the center,
    DegenerateRegion when the union has no area.
    """
    fans: list[_Fan] = []
    for part in parts:
        ring = part.vertices if isinstance(part, Region) else part
        if center != ORIGIN:
            ring = [v - center for v in ring]
        fans.append(_fan_of(ring))
    return _envelope(fans, center)


def cycle_envelope(xs: Sequence[int], ys: Sequence[int], m: int,
                   center: Point) -> Region:
    """Radial envelope around center of the closed polygonal cycle through
    the points center + (xs[i] / m, ys[i] / m).

    The caller vouches that every cycle point lies in one closed set that is
    star-shaped around center and whose boundary lies on the cycle; the
    envelope is then that set.  Edges on a line through the center are
    dropped.  The rest is cut into chains that turn one way around the
    center, each short of a full turn; clockwise chains are reversed, and
    chains that do not overlap in angle share a fan.
    """
    n = len(xs)
    turns = []
    for i in range(n):
        j = (i + 1) % n
        cr = xs[i] * ys[j] - ys[i] * xs[j]
        turns.append((cr > 0) - (cr < 0))
    # start where a chain must begin anyway, so none wraps past the start
    first = next((i for i in range(n) if turns[i] and turns[i] != turns[i - 1]), 0)
    verts: dict[int, Vertex] = {}

    def vertex(i: int) -> Vertex:
        v = verts.get(i)
        if v is None:
            x, y = xs[i], ys[i]
            g = gcd(x, y)
            v = verts[i] = (Point(Fraction(x, m), Fraction(y, m)), (x // g, y // g))
        return v

    # chains go first-fit into fans whose chains they do not overlap in angle
    fans: list[_Fan] = []
    spans: list[list[tuple[Dir, Dir]]] = []

    def close(chain: list[int], sign: int) -> None:
        if sign < 0:
            chain.reverse()
        run = [vertex(i) for i in chain]
        span = (run[0][1], run[-1][1])
        for fan, taken in zip(fans, spans):
            if not any(_overlap(span, t) for t in taken):
                fan.chains.append(run)
                taken.append(span)
                return
        fans.append(_Fan([run], False))
        spans.append([span])

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
            close(chain, sign)
            chain = []
        if s:
            chain, sign, half = [i, j], s, 0
            sx, sy = xs[i], ys[i]
    if chain:
        close(chain, sign)
    if len(fans) == 1 and len(fans[0].chains) > 1:
        # chains that only touch end to end still need a merge to join them
        fans.append(_Fan([fans[0].chains.pop()], False))
    return _envelope(fans, center)
