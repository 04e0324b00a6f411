"""Exact planar geometry written apart from errdiff, for checking its outputs.

Points are (x, y) tuples of Fractions.  Nothing here imports errdiff, so a
fault in the program's own predicates cannot hide a fault in its results.
Every test is decided exactly; none samples.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

O = (Fraction(0), Fraction(0))


def point(pair) -> tuple[Fraction, Fraction]:
    """A point from a pair of rational strings such as ["-1/2", "3"]."""
    return Fraction(pair[0]), Fraction(pair[1])


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def orient(a, b, c) -> int:
    """Sign of cross(b - a, c - a), from integer numerators and denominators.

    Denominators are positive, so multiplying through by all of them keeps
    the sign and avoids normalising a Fraction at every step.
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    an, ad = ax.numerator, ax.denominator
    pxn, pxd = bx.numerator * ad - an * bx.denominator, bx.denominator * ad
    qxn, qxd = cx.numerator * ad - an * cx.denominator, cx.denominator * ad
    an, ad = ay.numerator, ay.denominator
    pyn, pyd = by.numerator * ad - an * by.denominator, by.denominator * ad
    qyn, qyd = cy.numerator * ad - an * cy.denominator, cy.denominator * ad
    t = pxn * qyn * pyd * qxd - pyn * qxn * pxd * qyd
    return (t > 0) - (t < 0)


def on_segment(p, a, b) -> bool:
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def area2(ring) -> Fraction:
    n = len(ring)
    return sum((cross(ring[i], ring[(i + 1) % n]) for i in range(n)), Fraction(0))


def edges(ring):
    n = len(ring)
    for i in range(n):
        yield ring[i], ring[(i + 1) % n]


def locate(p, ring) -> int:
    """1 strictly inside the simple polygon, 0 on its boundary, -1 outside."""
    winding = 0
    px, py = p
    for a, b in edges(ring):
        o = orient(a, b, p)
        if o == 0 and (min(a[0], b[0]) <= px <= max(a[0], b[0])
                       and min(a[1], b[1]) <= py <= max(a[1], b[1])):
            return 0
        if a[1] <= py < b[1] and o > 0:
            winding += 1
        elif b[1] <= py < a[1] and o < 0:
            winding -= 1
    return 1 if winding else -1


def segment_outside_point(a, b, ring):
    """A point of segment ab outside the closed polygon, or None.

    The segment is cut at every parameter where it meets the boundary;
    each open piece between cuts is then wholly inside or wholly outside,
    so its midpoint decides it.
    """
    d = sub(b, a)
    dd = dot(d, d)
    if dd == 0:
        return None if locate(a, ring) >= 0 else a
    cuts = {Fraction(0), Fraction(1)}
    for u, v in edges(ring):
        e = sub(v, u)
        w = sub(u, a)
        den = cross(d, e)
        if den != 0:
            t = cross(w, e) / den
            s = cross(w, d) / den
            if 0 <= t <= 1 and 0 <= s <= 1:
                cuts.add(t)
        elif cross(w, d) == 0:
            for q in (u, v):
                t = dot(sub(q, a), d) / dd
                if 0 <= t <= 1:
                    cuts.add(t)
    ts = sorted(cuts)
    probes = [a, b] + [(a[0] + d[0] * (s + t) / 2, a[1] + d[1] * (s + t) / 2)
                       for s, t in zip(ts, ts[1:])]
    for p in probes:
        if locate(p, ring) < 0:
            return p
    return None


def polygon_outside_point(inner, ring):
    """A point of the closed polygon (or segment, or point) `inner` outside
    the closed simple polygon `ring`, or None when inner lies inside.

    A simple polygon is simply connected, so inner lies inside it as soon
    as inner's boundary does.
    """
    if len(inner) == 1:
        return None if locate(inner[0], ring) >= 0 else inner[0]
    for a, b in edges(inner):
        w = segment_outside_point(a, b, ring)
        if w is not None:
            return w
    return None


def convex_hull(points) -> list:
    """Counter-clockwise hull without collinear points (Andrew's chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def in_convex(p, hull) -> bool:
    """p in the closed counter-clockwise convex polygon hull."""
    return all(orient(a, b, p) >= 0 for a, b in edges(hull))


def clip(poly, a, b, c):
    """Convex polygon cut to the closed halfplane a*x + b*y <= c."""
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t))
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    while len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


class Sites:
    """A site set answering exact nearest-site queries with integers."""

    def __init__(self, sites):
        self.sites = list(sites)
        self.scale = lcm(*(q.denominator for c in self.sites for q in c))
        L = self.scale
        self._scaled = [(c, int(c[0] * L), int(c[1] * L)) for c in self.sites]

    def nearest(self, z) -> list:
        """Every site at the least squared distance from z (all ties).

        |z - c|^2 = |z|^2 - 2 z.c + |c|^2; with c = C / L and z's own
        denominators cleared, the part that depends on c is the integer
        key below, a positive multiple of |z - c|^2 - |z|^2.
        """
        zxn, zxd = z[0].numerator, z[0].denominator
        zyn, zyd = z[1].numerator, z[1].denominator
        d2 = zxd * zyd
        ax, ay = 2 * self.scale * zxn * zyd, 2 * self.scale * zyn * zxd
        best = None
        out = []
        for c, cx, cy in self._scaled:
            key = d2 * (cx * cx + cy * cy) - ax * cx - ay * cy
            if best is None or key < best:
                best, out = key, [c]
            elif key == best:
                out.append(c)
        return out


def cell_halfplanes(sites, c):
    """The closed Voronoi cell of c as halfplanes a*x + b*y <= k."""
    out = []
    for d in sites:
        if d != c:
            out.append((2 * (d[0] - c[0]), 2 * (d[1] - c[1]),
                        dot(d, d) - dot(c, c)))
    return out


def is_simple(ring) -> bool:
    """No two edges meet except consecutive ones at their shared vertex."""
    n = len(ring)
    if n < 3 or len(set(ring)) != n:
        return False
    es = list(edges(ring))
    for i, j in combinations(range(n), 2):
        (p1, p2), (q1, q2) = es[i], es[j]
        if j == i + 1 or (i == 0 and j == n - 1):
            # neighbours share one vertex; they may not fold back onto each other
            v, a, b = (p2, p1, q2) if j == i + 1 else (p1, p2, q1)
            if orient(a, v, b) == 0 and dot(sub(a, v), sub(b, v)) > 0:
                return False
            continue
        o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
        o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
        if o1 * o2 < 0 and o3 * o4 < 0:
            return False
        if (o1 == 0 and on_segment(q1, p1, p2)) or (o2 == 0 and on_segment(q2, p1, p2)) \
                or (o3 == 0 and on_segment(p1, q1, q2)) or (o4 == 0 and on_segment(p2, q1, q2)):
            return False
    return True


def star_at_origin(ring) -> bool:
    """Counter-clockwise ring whose every edge keeps the origin on its left."""
    return area2(ring) > 0 and all(orient(a, b, O) >= 0 for a, b in edges(ring))


def g_escape(ring, members):
    """A point of g(Q) outside Q, or None when Q is g-invariant.

    Q must be star-shaped around the origin.  Then Q + ch S is the union of
    the convex sums T + ch S over Q's fan triangles T = (0, v_i, v_i+1),
    and g(Q) is the union, over members S, triangles T and sites c, of the
    convex pieces ((T + ch S) clipped to the closed cell of c) - c.  Closed
    cells keep every nearest-site tie.
    """
    for sites in members:
        hull = convex_hull(sites)
        cells = {c: cell_halfplanes(sites, c) for c in sites}
        for a, b in edges(ring):
            if orient(O, a, b) <= 0:
                continue
            piece = convex_hull(add(t, h) for t in (O, a, b) for h in hull)
            for c, walls in cells.items():
                cut = piece
                for hp in walls:
                    cut = clip(cut, *hp)
                    if not cut:
                        break
                if not cut:
                    continue
                w = polygon_outside_point([sub(p, c) for p in cut], ring)
                if w is not None:
                    return w
    return None


def reachable_cloud(members, max_expansions: int) -> set:
    """Errors reached from 0 by breadth-first play with all ties explored.

    Inputs are the sites and the centroids of every pair and triple of
    sites, all in the member's hull.  Every such input and every site is a
    multiple of 1/L for L = 6 * lcm(site denominators), so the search runs
    on integers scaled by L.  Whole levels are expanded while the number of
    (error, input) pairs tried stays within max_expansions.
    """
    L = 1
    for sites in members:
        for p in sites:
            L = lcm(L, p[0].denominator, p[1].denominator)
    L *= 6
    scaled = []
    for sites in members:
        s = [(int(p[0] * L), int(p[1] * L)) for p in sites]
        xs = {((p[0] + q[0]) // 2, (p[1] + q[1]) // 2)
              for p, q in combinations(s, 2)} | set(s)
        xs |= {((p[0] + q[0] + r[0]) // 3, (p[1] + q[1] + r[1]) // 3)
               for p, q, r in combinations(s, 3)}
        scaled.append((s, sorted(xs)))
    seen = {(0, 0)}
    frontier = [(0, 0)]
    spent = 0
    while frontier:
        cost = len(frontier) * sum(len(xs) for _, xs in scaled)
        if spent + cost > max_expansions:
            break
        spent += cost
        grown = []
        for ex, ey in frontier:
            for sites, xs in scaled:
                for x, y in xs:
                    zx, zy = ex + x, ey + y
                    best = None
                    for cx, cy in sites:
                        d = (zx - cx) ** 2 + (zy - cy) ** 2
                        if best is None or d < best:
                            best, ties = d, [(cx, cy)]
                        elif d == best:
                            ties.append((cx, cy))
                    for cx, cy in ties:
                        nxt = (zx - cx, zy - cy)
                        if nxt not in seen:
                            seen.add(nxt)
                            grown.append(nxt)
        frontier = grown
    return {(Fraction(x, L), Fraction(y, L)) for x, y in seen}


def triangle(h, t=Fraction(1)):
    """Corners of T(h, t) = {(x, y): 0 <= y <= h, |x| <= t*y}, counter-clockwise."""
    if h == 0:
        return [O]
    return [O, (t * h, h), (-t * h, h)]


def in_triangle(p, h, t=Fraction(1)) -> bool:
    return 0 <= p[1] <= h and abs(p[0]) <= t * p[1]


def is_projection(y, z, corners) -> bool:
    """y is the nearest point of the convex polygon to z.

    For a convex set K, y = argmin |z - k| over K exactly when y is in K and
    (z - y).(k - y) <= 0 for every k in K; checking the corners suffices.
    """
    if len(corners) == 1:
        return y == corners[0]
    if not in_convex(y, corners):
        return False
    r = sub(z, y)
    return all(dot(r, sub(k, y)) <= 0 for k in corners)
