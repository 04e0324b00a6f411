"""Checks on the files errdiff writes, decided with the benchmark's own geometry.

Each check returns a list of problems (empty when it passes).  None of them
compares against a stored copy of earlier output: they rest on the paper's
iteration counts, on closed-form answers, or on properties every correct
answer has (invariance, containment of every reachable error, greedy
optimality of each game move).
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from exact import (
    O,
    Sites,
    add,
    convex_hull,
    dot,
    g_escape,
    in_convex,
    in_triangle,
    is_projection,
    is_simple,
    locate,
    point,
    polygon_outside_point,
    reachable_cloud,
    star_at_origin,
    sub,
    triangle,
)

# iteration counts reported in the paper for its example site sets
PAPER_ITERATIONS = {("sset1", "g"): 4, ("sset1", "G"): 4, ("sset2", "g"): 6,
                    ("sset4", "g"): 1}
HALF = Fraction(1, 2)
UNIT_SQUARE_GSET = {(-HALF, -HALF), (HALF, -HALF), (HALF, HALF), (-HALF, HALF)}
CLOUD_BUDGET = 300_000
TRIANGLE_ERROR_BOUND = 4  # |e|^2 <= 4 for heights h <= 1, slope 1
MAX_PROBLEMS = 5


def _fmt(p) -> str:
    return f"({p[0]}, {p[1]})"


def members_of(scene: dict, name: str) -> list[list[tuple]]:
    """Site lists of a collection in a scene written as JSON."""
    return [[point(p) for p in m["points"]] for m in scene["collections"][name]]


def read_set(path: Path) -> tuple[dict, list[tuple]]:
    payload = json.loads(path.read_text())
    return payload, [point(v) for v in payload["vertices"]]


def invariant_set_problems(ring, members) -> list[str]:
    """Q must be simple, star-shaped around 0 and map into itself under g."""
    if not is_simple(ring):
        return ["set boundary is not a simple polygon"]
    if not star_at_origin(ring):
        return ["set is not star-shaped around the origin"]
    w = g_escape(ring, members)
    if w is not None:
        return [f"g maps the set outside itself at {_fmt(w)}"]
    return []


def cloud_problems(ring, members) -> list[str]:
    outside = [p for p in reachable_cloud(members, CLOUD_BUDGET) if locate(p, ring) < 0]
    if outside:
        return [f"{len(outside)} reachable errors lie outside, e.g. {_fmt(outside[0])}"]
    return []


def gset_problems(path: Path, members, scene_key: str, op: str) -> list[str]:
    """A g- or G-set artifact: converged, invariant, holds every reachable error."""
    payload, ring = read_set(path)
    problems = []
    if not payload["converged"]:
        problems.append(f"did not converge: {payload['stop']}")
    want = PAPER_ITERATIONS.get((scene_key, op))
    if want is not None and payload["iterations"] != want:
        problems.append(f"{payload['iterations']} iterations, the paper has {want}")
    if scene_key == "unit_square" and op == "g" and set(ring) != UNIT_SQUARE_GSET:
        problems.append("g-set of the unit square is not the box [-1/2, 1/2]^2")
    problems += invariant_set_problems(ring, members)
    if not problems:
        problems += cloud_problems(ring, members)
    return problems


def fset_problems(path: Path, members) -> list[str]:
    """An f-set artifact: converged, simple, and holding every member hull."""
    payload, ring = read_set(path)
    problems = []
    if not payload["converged"]:
        problems.append(f"did not converge: {payload['stop']}")
    if not is_simple(ring):
        return problems + ["set boundary is not a simple polygon"]
    for sites in members:
        w = polygon_outside_point(convex_hull(sites), ring)
        if w is not None:
            problems.append(f"member hull leaves the set at {_fmt(w)}")
    return problems


def verify_report_problems(path: Path) -> list[str]:
    if not path.exists():
        return [f"{path.name} was not written"]
    report = json.loads(path.read_text())
    return [f"verify check {c['check']} failed" for c in report["checks"] if not c["passed"]]


def _bits(p) -> int:
    return max(max(abs(q.numerator).bit_length(), q.denominator.bit_length()) for q in p)


class TraceCheck:
    """Replays a JSONL game trace, checking each move exactly as it streams."""

    def __init__(self, path: Path, steps: int):
        self.path = path
        self.steps = steps
        self.problems: list[str] = []
        self.state_bits = 0

    def fail(self, n, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{self.path.name} step {n}: {message}")

    def records(self):
        with self.path.open() as f:
            for line in f:
                yield json.loads(line)

    def finish(self, closing: dict | None, mode: str, n: int, e) -> None:
        if closing is None:
            self.fail(n, "no closing record")
            return
        if closing.get("mode") != mode or closing.get("steps") != self.steps or n != self.steps:
            self.fail(n, f"closing record {closing} does not match {self.steps} {mode} steps")
        if point(closing["final_e"]) != e:
            self.fail(n, "final error is not e + x - y of the last step")


def check_undelayed_trace(path: Path, members: dict, region, steps: int) -> TraceCheck:
    """Undelayed game: y_n is a nearest site of the revealed set to e_n + x_n,
    x_n lies in that set's hull, e_n+1 = e_n + x_n - y_n, and every e_n lies
    in `region`, a set already checked to be g-invariant."""
    chk = TraceCheck(path, steps)
    hulls = {sid: convex_hull(sites) for sid, sites in members.items()}
    finders = {sid: Sites(sites) for sid, sites in members.items()}
    e = O
    n = 0
    closing = None
    for r in chk.records():
        if "final_e" in r:
            closing = r
            break
        sid = r["set"]
        x, y, rec_e, z = (point(r[k]) for k in ("x", "y", "e", "z"))
        chk.state_bits = max(chk.state_bits, _bits(rec_e), _bits(z))
        if r["step"] != n or sid not in members:
            chk.fail(n, f"unexpected step {r['step']} on set {sid!r}")
            break
        if rec_e != e:
            chk.fail(n, "e_n is not e_n-1 + x_n-1 - y_n-1")
        if z != add(rec_e, x):
            chk.fail(n, "z_n is not e_n + x_n")
        if not in_convex(x, hulls[sid]):
            chk.fail(n, f"input {_fmt(x)} outside the hull of {sid}")
        if y not in finders[sid].nearest(z):
            chk.fail(n, f"output {_fmt(y)} is not a nearest site to {_fmt(z)}")
        if locate(rec_e, region) < 0:
            chk.fail(n, f"error {_fmt(rec_e)} leaves the invariant set")
        e = sub(z, y)
        n += 1
    chk.finish(closing, "undelayed", n, e)
    if closing is not None and locate(e, region) < 0:
        chk.fail(n, "final error leaves the invariant set")
    return chk


def _height(set_id: str) -> Fraction | None:
    """h of a set id T(h,1), or None when the id does not read so."""
    if not (set_id.startswith("T(") and set_id.endswith(",1)")):
        return None
    return Fraction(set_id[2:-3])


def check_delayed_trace(path: Path, steps: int) -> TraceCheck:
    """Delayed game over T(h, 1), h <= 1: z_n = e_n + x_n, y_n is the nearest
    point of T(h_n, 1) to z_n, e_n+1 = z_n - y_n, x_n+1 lies in T(h_n, 1),
    every z_n lies in T(1, 1) and every |e_n|^2 <= 4 (the paper's bound)."""
    chk = TraceCheck(path, steps)
    e = O
    n = 0
    h_prev = None
    closing = None
    for r in chk.records():
        if "final_e" in r:
            closing = r
            break
        x, y, rec_e, z = (point(r[k]) for k in ("x", "y", "e", "z"))
        chk.state_bits = max(chk.state_bits, _bits(rec_e), _bits(z))
        if r["step"] != n:
            chk.fail(n, f"unexpected step {r['step']}")
            break
        h = _height(r["set"])
        if h is None:
            chk.fail(n, f"set {r['set']!r} is not a triangle T(h,1)")
            break
        if not 0 <= h <= 1:
            chk.fail(n, f"height {h} outside [0, 1]")
        if rec_e != e:
            chk.fail(n, "e_n is not z_n-1 - y_n-1")
        if z != add(rec_e, x):
            chk.fail(n, "z_n is not e_n + x_n")
        if not in_triangle(x, h if h_prev is None else h_prev):
            chk.fail(n, f"input {_fmt(x)} outside the triangle already revealed")
        if not is_projection(y, z, triangle(h)):
            chk.fail(n, f"output {_fmt(y)} is not the nearest point of T({h}, 1)")
        if not in_triangle(z, Fraction(1)):
            chk.fail(n, f"z_n = {_fmt(z)} outside T(1, 1)")
        if dot(rec_e, rec_e) > TRIANGLE_ERROR_BOUND:
            chk.fail(n, f"|e_n|^2 = {dot(rec_e, rec_e)} above {TRIANGLE_ERROR_BOUND}")
        e = sub(z, y)
        h_prev = h
        n += 1
    chk.finish(closing, "delayed", n, e)
    if dot(e, e) > TRIANGLE_ERROR_BOUND:
        chk.fail(n, "final error above the bound")
    return chk
