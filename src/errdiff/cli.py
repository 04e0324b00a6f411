"""Command-line surface over scenes: iterate, simulate, verify, render.

Every command reads one scene file and writes artifacts into an output
directory.  All rational values are serialized exactly, so repeated runs
with the same scene and seeds produce byte-identical files.  Exit codes:
0 ok, 2 iteration did not converge, 3 bad input, 4 a check failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Iterable, TextIO

from .dynamics import TraceStep, play
from .geometry import (
    ORIGIN,
    GeometryError,
    KernelViolation,
    Point,
    PointSeed,
    Region,
    parse_scalar,
    point_of,
    scalar_str,
    sub_ratios,
)
from .operators import Collection, IterationResult, iterate, shared_site
from .scene import ParseError, Scene, ValidationError, load_scene
from .render import render_svg
from .verify import (
    VerificationReport,
    contains_union_of_hulls,
    covers_translated_inner_cells,
    is_invariant_g,
    is_invariant_p,
    is_star_convex_origin,
    triangle_family_check,
)
from .voronoi import assumption_report

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INVALID = 3
EXIT_CHECK_FAILED = 4


def _point_strs(p) -> list[str]:
    return [scalar_str(p.x), scalar_str(p.y)]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _write_trace(fh: TextIO, mode: str,
                 steps: Iterable[TraceStep]) -> tuple[int, Point]:
    """The JSONL trace: json.dumps of each step's record, then a summary.

    Steps are written as they arrive, so a game from dynamics.play is never
    held whole; returns the step count and the error left after the last
    step (its z - y, or the origin for none).  Each step line is one
    f-string over the steps' Ratios, with the bytes json.dumps gives the
    record: a coordinate n / d is str of its Fraction, "n" when d is 1 and
    "n/d" otherwise, and needs no escaping, and a set id goes through
    json.dumps whenever it differs from the previous step's.
    """
    count, last = 0, None
    set_id = sid = None
    for count, last in enumerate(steps, 1):
        n, step_set, (xxn, xxd, xyn, xyd), (yxn, yxd, yyn, yyd), \
            (exn, exd, eyn, eyd), (zxn, zxd, zyn, zyd) = last
        if step_set != set_id:
            set_id, sid = step_set, json.dumps(step_set)
        fh.write(f'{{"step": {n}, "set": {sid}, '
                 f'"x": ["{xxn if xxd == 1 else f"{xxn}/{xxd}"}", '
                 f'"{xyn if xyd == 1 else f"{xyn}/{xyd}"}"], '
                 f'"y": ["{yxn if yxd == 1 else f"{yxn}/{yxd}"}", '
                 f'"{yyn if yyd == 1 else f"{yyn}/{yyd}"}"], '
                 f'"e": ["{exn if exd == 1 else f"{exn}/{exd}"}", '
                 f'"{eyn if eyd == 1 else f"{eyn}/{eyd}"}"], '
                 f'"z": ["{zxn if zxd == 1 else f"{zxn}/{zxd}"}", '
                 f'"{zyn if zyd == 1 else f"{zyn}/{zyd}"}"]}}\n')
    final = ORIGIN if last is None else point_of(sub_ratios(last.qz, last.qy))
    fh.write(json.dumps({"mode": mode, "steps": count,
                         "final_e": _point_strs(final)}) + "\n")
    return count, final


def _iteration_payload(name: str, op: str, res: IterationResult) -> dict:
    payload = {
        "collection": name,
        "operator": op,
        "converged": res.converged,
        "iterations": res.iterations,
        "stop": res.stop_reason,
        "rounding_free": res.rounding_free,
        "vertex_count": len(res.final.vertices),
        "vertices": [_point_strs(p) for p in res.final.vertices],
    }
    if res.stop_reason == "certified":
        payload["gap"] = scalar_str(res.gap)
    return payload


def _run_iterations(scene: Scene, args, op: str, kind: str, out: Path) -> int:
    if not scene.collections:
        raise ValidationError("scene declares no collections", ("collections",))
    max_iter = scene.max_iter if args.max_iter is None else args.max_iter
    code = EXIT_OK
    for name, collection in scene.collections.items():
        seed = _seed_for(collection, name, kind)
        res = iterate(op, collection, seed, max_iter)
        _write_json(out / f"{name}.{kind}.json", _iteration_payload(name, op, res))
        _write_jsonl(out / f"{name}.{kind}.log.jsonl", res.log_records())
        status = "converged" if res.converged else res.stop_reason
        unit = "iteration" if res.iterations == 1 else "iterations"
        print(f"{name}: {op} {status} after {res.iterations} {unit}, "
              f"{len(res.final.vertices)} vertices")
        if not res.converged:
            code = EXIT_NOT_CONVERGED
    return code


def _seed_for(collection: Collection, name: str, kind: str) -> PointSeed:
    if kind == "gset":
        return PointSeed(ORIGIN)
    try:
        return PointSeed(shared_site(collection))
    except KernelViolation:
        raise ValidationError(
            f"members of {name!r} share no site to seed from",
            (f"collections.{name}",)) from None


def _cmd_min_gset(scene: Scene, args, out: Path) -> int:
    return _run_iterations(scene, args, "G" if args.convex else "g", "gset", out)


def _cmd_min_fset(scene: Scene, args, out: Path) -> int:
    return _run_iterations(scene, args, "P" if args.convex else "p", "fset", out)


def _cmd_simulate(scene: Scene, args, out: Path) -> int:
    if not scene.simulations:
        raise ValidationError("scene declares no simulations", ("simulations",))
    for name, spec in scene.simulations.items():
        steps = spec.steps if args.steps is None else args.steps
        seed = spec.seed if args.seed is None else args.seed
        rounds = play(spec.mode, spec.provider, spec.opponent, steps, seed=seed)
        path = out / f"{name}.trace.jsonl"
        try:
            with path.open("w") as fh:
                count, final = _write_trace(fh, spec.mode, rounds)
        except BaseException:
            # a game that fails mid-way leaves no partial trace behind
            path.unlink(missing_ok=True)
            raise
        print(f"{name}: {spec.mode} {count} steps, "
              f"final e = ({scalar_str(final.x)}, {scalar_str(final.y)})")
    return EXIT_OK


def _point_of(value, path: Path, where: str) -> Point:
    """A stored [x, y] pair as a Point; ValidationError names the file."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"{path}: {where} is not an [x, y] pair",
                              (str(path),))
    try:
        return Point(parse_scalar(value[0]), parse_scalar(value[1]))
    except ValueError as exc:
        raise ValidationError(f"{path}: {where}: {exc}", (str(path),)) from None


def _json_of(text: str, path: Path, where: str = ""):
    """Parsed JSON; ValidationError names the file when it is malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {where}not valid JSON: {exc}",
                              (str(path),)) from None


def _load_region(path: Path) -> Region:
    """A stored set's region; ValidationError names the file when its ring
    is malformed or not a valid region."""
    payload = _json_of(path.read_text(), path)
    vertices = payload.get("vertices") if isinstance(payload, dict) else None
    if not isinstance(vertices, list):
        raise ValidationError(f"{path}: no \"vertices\" list", (str(path),))
    ring = [_point_of(v, path, "a vertex") for v in vertices]
    try:
        return Region.from_ring(ring)
    except GeometryError as exc:
        raise ValidationError(f"{path}: {exc}", (str(path),)) from None


def _report_dict(rep: VerificationReport) -> dict:
    return {
        "check": rep.check,
        "passed": rep.passed,
        "witnesses": [_point_strs(w) for w in rep.witnesses],
        "notes": rep.notes,
    }


def _cmd_verify(scene: Scene, args, out: Path) -> int:
    found = False
    failed = False
    for name, collection in scene.collections.items():
        reports: list[VerificationReport] = []
        gset = out / f"{name}.gset.json"
        if gset.exists():
            Q = _load_region(gset)
            # the g operator takes star-shaped input only: a set that is
            # not gets its star report and no invariance check
            star = is_star_convex_origin(Q)
            if star.passed:
                reports.append(is_invariant_g(collection, Q))
            else:
                star = dataclasses.replace(
                    star, notes=star.notes + "; is_invariant_g not checked")
            reports.append(star)
            for S in collection:
                reports.append(covers_translated_inner_cells(S, Q))
        fset = out / f"{name}.fset.json"
        if fset.exists():
            D = _load_region(fset)
            reports.append(is_invariant_p(collection, D))
            reports.append(contains_union_of_hulls(collection, D))
        if not reports:
            continue
        found = True
        _write_json(out / f"{name}.verify.json",
                    {"collection": name,
                     "checks": [_report_dict(r) for r in reports]})
        for rep in reports:
            mark = "pass" if rep.passed else "FAIL"
            print(f"{name}: {rep.check}: {mark}")
            failed = failed or not rep.passed
    for name, family in scene.triangles.items():
        found = True
        rep = triangle_family_check(family.h_max, family.t)
        _write_json(out / f"{name}.verify.json",
                    {"triangle_family": name, "checks": [_report_dict(rep)]})
        mark = "pass" if rep.passed else "FAIL"
        print(f"{name}: {rep.check}: {mark}")
        failed = failed or not rep.passed
    if not found:
        raise ValidationError(
            f"no artifacts to verify in {out}", ("verify",))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_report_assumptions(scene: Scene, args, out: Path) -> int:
    if not scene.collections:
        raise ValidationError("scene declares no collections", ("collections",))
    payload = {}
    for name, collection in scene.collections.items():
        report = assumption_report(collection.members)
        payload[name] = report.as_dict()
        print(f"{name}: {report.normal_count} hull edge normals, "
              f"max hull diameter_sq = "
              f"{scalar_str(report.max_hull_diameter_sq)}")
    _write_json(out / "assumptions.json", payload)
    return EXIT_OK


def _load_trace(path: Path) -> list:
    points = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        record = _json_of(line, path, f"line {n} is ")
        e = record.get("e", record.get("final_e")) if isinstance(record, dict) else None
        points.append(_point_of(e, path, f"line {n}'s \"e\" or \"final_e\""))
    return points


def _cmd_render(scene: Scene, args, out: Path) -> int:
    site_sets = [S for c in scene.collections.values() for S in c]
    invariant = None
    for name in scene.collections:
        for kind in ("gset", "fset"):
            path = out / f"{name}.{kind}.json"
            if invariant is None and path.exists():
                invariant = _load_region(path)
    traces = []
    for name in scene.simulations:
        path = out / f"{name}.trace.jsonl"
        if path.exists():
            traces.append(_load_trace(path))
    svg = render_svg(site_sets=site_sets, invariant=invariant, traces=traces)
    target = out / f"{Path(args.scene).stem}.svg"
    target.write_text(svg)
    print(f"wrote {target}")
    return EXIT_OK


_COMMANDS = {
    "min-gset": _cmd_min_gset,
    "min-fset": _cmd_min_fset,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "report-assumptions": _cmd_report_assumptions,
    "render": _cmd_render,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_INVALID, since 2 means a run
    that did not converge; -h still exits 0.  No flag may be abbreviated,
    so a prefix such as --s is refused rather than read as --scene."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process: parse_args
    fills a fresh namespace each call, so no flag carries over."""
    parser = _Parser(
        prog="errdiff",
        description="Minimal invariant sets and tracking games, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help=None):
        p.add_argument("--scene", required=True, help="scene file (JSON)")
        p.add_argument("--out", default=".", help="artifact directory")
        if seed_help:
            p.add_argument("--seed", type=int, default=None, help=seed_help)

    def iteration_flags(p):
        p.add_argument("--convex", action="store_true",
                       help="iterate the convex variant")
        p.add_argument("--max-iter", type=int, default=None)

    for name in ("min-gset", "min-fset"):
        p = sub.add_parser(name, help=f"iterate to the minimal set ({name[4]})")
        common(p)
        iteration_flags(p)
    p = sub.add_parser("simulate", help="run the declared tracking games")
    common(p, seed_help="overrides each game's seed")
    p.add_argument("--steps", type=int, default=None)
    for name, text in (("verify", "check stored artifacts exactly"),
                       ("report-assumptions", "summarize boundedness data"),
                       ("render", "draw the scene and artifacts as SVG")):
        p = sub.add_parser(name, help=text)
        # verify draws no random numbers; it keeps --seed so that scripts
        # which pass one still run
        common(p, seed_help="accepted and ignored: verify's checks are exact"
               if name == "verify" else None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scene = load_scene(args.scene)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](scene, args, out)
    except (OSError, ParseError, ValidationError, GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
