"""Spans and counts around errdiff's public functions, installed from outside.

The tracer replaces a function by a wrapper in every errdiff module (or on
the class) that looks it up, so calls made through any import path are
seen.  Spans (name, start, end, parent) are kept in flat arrays in memory
and written out once at the end.  A function that no longer exists is
reported as absent rather than failing the run.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (name reported, module that defines it, attribute path, kind).  A "span"
# target is timed; a "count" target only counts calls, for predicates so
# hot that a span each would swamp what they measure.
TARGETS = (
    ("scene.load_scene", "errdiff.scene", "load_scene", "span"),
    ("cli.main", "errdiff.cli", "main", "span"),
    ("operators.iterate", "errdiff.operators", "iterate", "span"),
    ("operators.apply_operator", "errdiff.operators", "apply_operator", "span"),
    ("operators.minkowski_convex_star", "errdiff.operators", "minkowski_convex_star", "span"),
    ("operators.round_region", "errdiff.operators", "round_region", "span"),
    ("operators.equal_canonical", "errdiff.geometry", "equal_canonical", "span"),
    ("starunion.union_star", "errdiff.starunion", "union_star", "span"),
    ("voronoi.cell", "errdiff.voronoi", "cell", "span"),
    ("voronoi.intersect_region_cell", "errdiff.voronoi", "intersect_region_cell", "span"),
    ("voronoi.intersect_region_cell_components", "errdiff.voronoi",
     "intersect_region_cell_components", "span"),
    ("voronoi.project", "errdiff.voronoi", "project", "span"),
    ("booleans.clip_components", "errdiff.booleans", "clip_components", "span"),
    ("booleans.union_rings", "errdiff.booleans", "union_rings", "span"),
    ("booleans.triangulate", "errdiff.booleans", "triangulate", "span"),
    ("booleans.subset_witness", "errdiff.booleans", "subset_witness", "span"),
    ("geometry.orient", "errdiff.geometry", "orient", "count"),
    ("geometry.minkowski_convex", "errdiff.geometry", "minkowski_convex", "span"),
    ("geometry.canonicalize_ring", "errdiff.geometry", "canonicalize_ring", "span"),
    ("geometry.project_convex", "errdiff.geometry", "project_convex", "span"),
    ("dynamics.run", "errdiff.dynamics", "run", "span"),
    ("dynamics.ScenarioProvider.pick", "errdiff.dynamics", "ScenarioProvider.pick", "span"),
    ("dynamics.Opponent.pick", "errdiff.dynamics", "Opponent.pick", "span"),
    ("dynamics.Trace.records", "errdiff.dynamics", "Trace.records", "span"),
    ("verify.is_invariant_g", "errdiff.verify", "is_invariant_g", "span"),
    ("verify.is_invariant_p", "errdiff.verify", "is_invariant_p", "span"),
    ("verify.covers_translated_inner_cells", "errdiff.verify",
     "covers_translated_inner_cells", "span"),
    ("verify.triangle_family_check", "errdiff.verify", "triangle_family_check", "span"),
)


def coordinate_bits(points) -> int:
    """Widest numerator or denominator, in bits, over the points given."""
    best = 0
    for p in points:
        for q in (p.x, p.y):
            best = max(best, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    """Per-name calls, inclusive and self seconds, extra counts, and spans."""

    def __init__(self):
        self.names = [name for name, _, _, _ in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        self.counts = {"starunion.union_star.parts": 0}
        self.maxima = {"operators.iterate_bits_max": 0, "operators.iterate_vertices_max": 0}
        self.absent: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._open: list[int] = []
        self._child: list[float] = []
        self._depth = [0] * n
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "operators.apply_operator": self._after_apply_operator,
            "starunion.union_star": self._after_union_star,
        }

    # -- extra counts taken at the wrapped boundaries

    def bump_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _after_apply_operator(self, args, result) -> None:
        self.bump_max("operators.iterate_bits_max", coordinate_bits(result.vertices))
        self.bump_max("operators.iterate_vertices_max", len(result.vertices))

    def _after_union_star(self, args, result) -> None:
        self.counts["starunion.union_star.parts"] += len(args[0])

    # -- wrappers

    def _span(self, nid: int, fn, hook):
        clock = time.perf_counter
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        opened, child, depth = self._open, self._child, self._depth
        calls, incl, self_s = self.calls, self.incl, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(opened[-1] if opened else -1)
            starts.append(0.0)
            ends.append(0.0)
            opened.append(idx)
            child.append(0.0)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                opened.pop()
                inner = child.pop()
                depth[nid] -= 1
                d = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                if child:
                    child[-1] += d
                calls[nid] += 1
                self_s[nid] += d - inner
                if not depth[nid]:
                    incl[nid] += d
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count(self, nid: int, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever errdiff looks it up."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "errdiff" or name.startswith("errdiff."))]
        self.absent = []
        for nid, (name, home, attr, kind) in enumerate(TARGETS):
            owner = sys.modules.get(home)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if kind == "count":
                wrapped = self._count(nid, original)
            else:
                wrapped = self._span(nid, original, self._hooks.get(name))
            if len(path) > 1:
                self._patch(owner, path[-1], wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, key: str, wrapped) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    # -- results

    def layer_values(self, rounds: int, time_scale: float = 1.0) -> dict[str, float]:
        """Per-round calls, inclusive and self seconds for every target, the
        seconds multiplied by time_scale."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid] / rounds
            out[f"{name}.s"] = self.incl[nid] * time_scale / rounds
            out[f"{name}.self_s"] = self.self_s[nid] * time_scale / rounds
        for key, value in self.counts.items():
            out[key] = value / rounds
        out.update(self.maxima)
        return out

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one span each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent"],
                                "absent": self.absent}) + "\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.span_name, self.span_start,
                                                   self.span_end, self.span_parent)):
                f.write(f'[{i},"{names[nid]}",{s - t0:.9f},{e - t0:.9f},{p}]\n')
