#!/usr/bin/env python3
"""errdiff benchmark: solve, verify and play through the errdiff CLI, in-process.

    python3 perfbench/run.py --workload solve-geometric --seed 1 --seconds 10 --trace 0

Each workload writes its scene files from --seed, then repeats whole rounds
of CLI calls (`errdiff.cli.main`, one call per operation) until --seconds
have passed, then checks every artifact exactly with the benchmark's own
geometry.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 rounds alternate
untraced and traced, and the metrics are the per-layer ones, including the
tracing overhead against the untraced rounds.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from checks import (check_delayed_trace, check_undelayed_trace, fset_problems, gset_problems,
                    invariant_set_problems, members_of, read_set, verify_report_problems)
from speed import Interval, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENES = ROOT / "scenes"
DATA = HERE / "data"
OUT = HERE / "out"
SETUP_REPEATS = 10


def say(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# scene files


def shipped(stem: str) -> dict:
    return json.loads((SCENES / f"{stem}.json").read_text())


def collection_only(stem: str, rng: random.Random, shift: tuple[int, int]) -> dict:
    """The shipped collection with each member's sites shuffled and shifted.

    Both changes leave the minimal g-set unchanged: it lives in error
    coordinates, which a translation of every site does not move.  Only the
    g family is shifted; f-sets live in site coordinates, where a shift
    changes which coordinates the rounding rule counts as wide.
    """
    collections = shipped(stem)["collections"]
    out = {}
    for name, members in collections.items():
        moved = []
        for m in members:
            pts = [[str(Fraction(x) + shift[0]), str(Fraction(y) + shift[1])]
                   for x, y in m["points"]]
            rng.shuffle(pts)
            moved.append({"id": m["id"], "points": pts})
        out[name] = moved
    return {"collections": out}


def undelayed_game(collection: str, provider: dict, strategy: str, steps: int,
                   rng: random.Random) -> dict:
    return {"mode": "undelayed",
            "provider": {**provider, "collection": collection},
            "opponent": {"strategy": strategy, "seed": rng.randrange(10**6)},
            "steps": steps, "seed": rng.randrange(10**6)}


def delayed_triangle_game(steps: int, rng: random.Random) -> dict:
    return {"mode": "delayed",
            "provider": {"mode": "random-triangle", "triangle": "pv",
                         "seed": rng.randrange(10**6)},
            "opponent": {"strategy": "uniform-random-in-hull",
                         "seed": rng.randrange(10**6)},
            "steps": steps, "seed": rng.randrange(10**6)}


# ---------------------------------------------------------------------------
# operations and rounds


@dataclass
class Op:
    """One CLI call, the files it writes, and how its time is counted."""

    key: str
    argv: list[str]
    kind: str  # "solve", "verify" or "simulate"
    outputs: list[Path]
    steps: int = 0
    log: Path | None = None


@dataclass
class Run:
    """Everything one benchmark run records while it measures."""

    ops: list[Op]
    verify_passes: int = 1
    results: list[tuple[str, int]] = field(default_factory=list)  # (op key, exit code)
    digests: dict[str, set] = field(default_factory=dict)
    rounds: list[dict] = field(default_factory=list)  # reference seconds per kind
    rounding_events: int = 0


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def call(cli, argv: list[str]) -> int:
    """Run one errdiff CLI command in this process; its exit code."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # an escaped exception is a failed operation, not a crash
        code = -1
        sink.write(traceback.format_exc())
    if code != 0:
        say(f"errdiff {' '.join(argv)} exited {code}:\n{sink.getvalue()}")
    return code


def rounding_events(log: Path) -> int:
    total = 0
    with log.open() as f:
        for line in f:
            total += len(json.loads(line).get("rounding", ()))
    return total


def play_round(cli, run: Run, speed: SpeedProbe, traced: bool) -> None:
    kinds: dict[str, list[Interval]] = {"solve": [], "verify": [], "simulate": []}
    steps = 0
    for op in run.ops:
        code, iv = speed.timed(call, cli, op.argv)
        kinds[op.kind].append(iv)
        run.results.append((op.key, code))
        steps += op.steps
        run.digests.setdefault(op.key, set()).add(digest(op.outputs))
        if traced and op.log is not None and op.log.exists():
            run.rounding_events += rounding_events(op.log)
    scaled = {kind: sum(iv.scaled() for iv in ivs) for kind, ivs in kinds.items()}
    scaled["all"] = sum(scaled.values())
    scaled["verify"] /= run.verify_passes
    whole = Interval.combined(iv for ivs in kinds.values() for iv in ivs)
    run.rounds.append({**scaled, "steps": steps, "traced": traced, "speed": whole})
    say(f"round {len(run.rounds)}{' traced' if traced else ''}: "
        f"solve {scaled['solve']:.3f} s, verify {scaled['verify']:.3f} s per pass, "
        f"simulate {scaled['simulate']:.3f} s for {steps} steps "
        f"(reference seconds; {whole.net:.3f} s on the clock, {whole.probes} probes)")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Writes its scene files, lists one round of operations, checks results."""

    name = ""
    # times a round repeats its verify calls; verify_s is the mean pass
    VERIFY_PASSES = 1

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(f"{self.name}/{seed}")
        self.scenes: dict[str, dict] = {}
        self.state_bits = 0

    def write(self, filename: str, scene: dict) -> None:
        path = self.work / "scenes" / filename
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(scene, indent=1))
        self.scenes[filename] = scene

    def scene_files(self) -> None:
        raise NotImplementedError

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self) -> dict[str, list[str]]:
        """Problems found, keyed by the operation whose output shows them."""
        raise NotImplementedError


class Solve(Workload):
    """Per scene: g, G, p and P to their stopping points, a game on the
    g scene, and `verify` on each of the four results.  VERIFY_STORED
    scenes only have their stored g-set verified."""

    STEMS: tuple[str, ...] = ()
    VERIFY_STORED: tuple[str, ...] = ()
    GAME_STEPS = 0
    FAMILIES = (("g", "min-gset", [], "gset", "g"), ("G", "min-gset", ["--convex"], "gset", "g"),
                ("p", "min-fset", [], "fset", "p"), ("P", "min-fset", ["--convex"], "fset", "p"))

    def scene_files(self) -> None:
        for stem in self.STEMS:
            shift = (self.rng.randint(-2, 2), self.rng.randint(-2, 2))
            g_scene = collection_only(stem, self.rng, shift)
            (name,) = g_scene["collections"]
            g_scene["simulations"] = {"walk": undelayed_game(
                name, {"mode": "fixed"}, "uniform-random-in-hull", self.GAME_STEPS, self.rng)}
            self.write(f"{stem}.g.json", g_scene)
            self.write(f"{stem}.p.json", collection_only(stem, self.rng, (0, 0)))
        for stem in self.VERIFY_STORED:
            # a shift leaves the g-set in place, so the stored set still applies
            shift = (self.rng.randint(-2, 2), self.rng.randint(-2, 2))
            self.write(f"{stem}.g.json", collection_only(stem, self.rng, shift))
            stored = self.work / stem / "stored"
            stored.mkdir(parents=True)
            shutil.copyfile(DATA / f"{stem}.gset.json", stored / f"{stem}.gset.json")

    def round_ops(self) -> list[Op]:
        ops = []
        for stem in self.STEMS:
            ops += self.scene_ops(stem)
        for stem in self.VERIFY_STORED:
            out, scene = self.work / stem / "stored", self.work / "scenes" / f"{stem}.g.json"
            ops.append(Op(f"{stem}/stored/verify", ["verify", "--scene", str(scene),
                                                    "--out", str(out)],
                          "verify", [out / f"{stem}.verify.json"]))
        verifies = [op for op in ops if op.kind == "verify"]
        return [op for op in ops if op.kind != "verify"] + verifies * self.VERIFY_PASSES

    def scene_ops(self, stem: str) -> list[Op]:
        (name,) = self.scenes[f"{stem}.g.json"]["collections"]
        scenes = self.work / "scenes"
        ops, verifies = [], []
        for op, command, flags, kind, family in self.FAMILIES:
            out = self.work / stem / op
            scene = str(scenes / f"{stem}.{family}.json")
            log = out / f"{name}.{kind}.log.jsonl"
            ops.append(Op(f"{stem}/{op}", [command, *flags, "--scene", scene, "--out", str(out)],
                          "solve", [out / f"{name}.{kind}.json", log], log=log))
            verifies.append(Op(f"{stem}/{op}/verify", ["verify", "--scene", scene, "--out", str(out)],
                               "verify", [out / f"{name}.verify.json"]))
        game = self.work / stem / "game"
        ops.append(Op(f"{stem}/game", ["simulate", "--scene", str(scenes / f"{stem}.g.json"),
                                       "--out", str(game)],
                      "simulate", [game / "walk.trace.jsonl"], steps=self.GAME_STEPS))
        return ops + verifies

    def check(self) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        for stem in self.STEMS:
            problems.update(self.scene_checks(stem))
        for stem in self.VERIFY_STORED:
            out = self.work / stem / "stored"
            _, region = read_set(out / f"{stem}.gset.json")
            members = members_of(self.scenes[f"{stem}.g.json"], stem)
            problems[f"{stem}/stored/verify"] = (verify_report_problems(out / f"{stem}.verify.json")
                                                 + invariant_set_problems(region, members))
        return problems

    def scene_checks(self, stem: str) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        for op, _, _, kind, family in self.FAMILIES:
            scene = self.scenes[f"{stem}.{family}.json"]
            (name,) = scene["collections"]
            members = members_of(scene, name)
            out = self.work / stem / op
            if kind == "gset":
                problems[f"{stem}/{op}"] = gset_problems(out / f"{name}.gset.json",
                                                         members, stem, op)
            else:
                problems[f"{stem}/{op}"] = fset_problems(out / f"{name}.fset.json", members)
            problems[f"{stem}/{op}/verify"] = verify_report_problems(out / f"{name}.verify.json")
        # the game's errors must stay in the g-set just computed and checked
        scene = self.scenes[f"{stem}.g.json"]
        (name,) = scene["collections"]
        if problems[f"{stem}/g"]:
            problems[f"{stem}/game"] = ["no checked g-set to hold the game's errors"]
            return problems
        ids = {m["id"]: sites for m, sites in zip(scene["collections"][name],
                                                   members_of(scene, name))}
        _, region = read_set(self.work / stem / "g" / f"{name}.gset.json")
        chk = check_undelayed_trace(self.work / stem / "game" / "walk.trace.jsonl",
                                    ids, region, self.GAME_STEPS)
        self.state_bits = max(self.state_bits, chk.state_bits)
        problems[f"{stem}/game"] = chk.problems
        return problems


class SolveGeometric(Solve):
    """sset3: chains that only stop once the rounding rule snaps them."""

    name = "solve-geometric"
    STEMS = ("sset3",)
    VERIFY_STORED = ("ssprime",)
    # a run is one round here, so the verify calls (~0.3 s) repeat to be timed steadily
    VERIFY_PASSES = 5
    GAME_STEPS = 12_000


class SolveExact(Solve):
    """Five small scenes: exact fixed points in 1-7 iterations."""

    name = "solve-exact"
    STEMS = ("sset1", "sset2", "sset4", "square_center", "unit_square")
    GAME_STEPS = 500


class Games(Workload):
    """Three long games, three small solves, and the triangle-family verify."""

    name = "games"
    GAME_STEPS = 12_000
    # (scene, operator, collection): exact in 4, 4 and 6 iterations
    SOLVES = (("sset1", "g", "sset1"), ("sset1", "G", "sset1"), ("sset2", "g", "sset2"))

    def scene_files(self) -> None:
        rng = self.rng
        sset3 = {"collections": shipped("sset3")["collections"], "simulations": {
            "uniform": undelayed_game("sset3", {"mode": "fixed"},
                                      "uniform-random-in-hull", self.GAME_STEPS, rng)}}
        ssprime = {"collections": shipped("ssprime")["collections"], "simulations": {
            "aligned": undelayed_game(
                "ssprime", {"mode": "random-from-collection", "seed": rng.randrange(10**6)},
                "error-aligned-vertex", self.GAME_STEPS, rng)}}
        tri = {"triangles": {"pv": {"h_max": "1", "t": "1"}},
               "simulations": {"heights": delayed_triangle_game(self.GAME_STEPS, rng)}}
        self.write("sset3.game.json", sset3)
        self.write("ssprime.game.json", ssprime)
        self.write("triangle.game.json", tri)
        for stem in ("sset1", "sset2"):
            shift = (rng.randint(-2, 2), rng.randint(-2, 2))
            self.write(f"{stem}.g.json", collection_only(stem, rng, shift))
        self.verify_seed = rng.randrange(10**6)

    def round_ops(self) -> list[Op]:
        scenes, out = self.work / "scenes", self.work / "games"
        ops = [Op(f"games/{sim}", ["simulate", "--scene", str(scenes / f"{stem}.game.json"),
                                   "--out", str(out)],
                  "simulate", [out / f"{sim}.trace.jsonl"], steps=self.GAME_STEPS)
               for stem, sim in (("sset3", "uniform"), ("ssprime", "aligned"),
                                 ("triangle", "heights"))]
        for stem, op, name in self.SOLVES:
            g = self.work / stem / op
            flags = ["--convex"] if op == "G" else []
            ops.append(Op(f"{stem}/{op}", ["min-gset", *flags, "--scene",
                                           str(scenes / f"{stem}.g.json"), "--out", str(g)],
                          "solve", [g / f"{name}.gset.json", g / f"{name}.gset.log.jsonl"],
                          log=g / f"{name}.gset.log.jsonl"))
        ops.append(Op("games/verify", ["verify", "--scene", str(scenes / "triangle.game.json"),
                                       "--out", str(out), "--seed", str(self.verify_seed)],
                      "verify", [out / "pv.verify.json"]))
        return ops

    def check(self) -> dict[str, list[str]]:
        out = self.work / "games"
        problems: dict[str, list[str]] = {}
        for stem, sim in (("sset3", "uniform"), ("ssprime", "aligned")):
            scene = self.scenes[f"{stem}.game.json"]
            members = members_of(scene, stem)
            _, region = read_set(DATA / f"{stem}.gset.json")
            found = invariant_set_problems(region, members)
            if found:
                problems[f"games/{sim}"] = [f"stored {stem} set: {p}" for p in found]
                continue
            ids = {m["id"]: sites for m, sites in zip(scene["collections"][stem], members)}
            chk = check_undelayed_trace(out / f"{sim}.trace.jsonl", ids, region, self.GAME_STEPS)
            self.state_bits = max(self.state_bits, chk.state_bits)
            problems[f"games/{sim}"] = chk.problems
        chk = check_delayed_trace(out / "heights.trace.jsonl", self.GAME_STEPS)
        self.state_bits = max(self.state_bits, chk.state_bits)
        problems["games/heights"] = chk.problems
        for stem, op, name in self.SOLVES:
            members = members_of(self.scenes[f"{stem}.g.json"], name)
            problems[f"{stem}/{op}"] = gset_problems(
                self.work / stem / op / f"{name}.gset.json", members, stem, op)
        problems["games/verify"] = verify_report_problems(out / "pv.verify.json")
        return problems


WORKLOADS = {w.name: w for w in (SolveGeometric, SolveExact, Games)}


# ---------------------------------------------------------------------------
# set-up, measurement, report


def import_errdiff():
    """A fresh import of errdiff from this checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "errdiff" or n.startswith("errdiff.")]:
        del sys.modules[name]
    errdiff = importlib.import_module("errdiff")
    if Path(errdiff.__file__).resolve().parent != (SRC / "errdiff").resolve():
        raise ImportError(f"errdiff imported from {errdiff.__file__}, not from {SRC}")
    return errdiff


def setup(workload_cls, work: Path, seed: int):
    """Import errdiff, load every shipped scene, write the workload's scenes."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    errdiff = import_errdiff()
    for path in sorted(SCENES.glob("*.json")):
        errdiff.load_scene(str(path))
    workload = workload_cls(work, seed)
    workload.scene_files()
    return workload


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "errdiff" / "__init__.py").is_file() or not SCENES.is_dir():
        say(f"error: no errdiff sources under {SRC} or no scenes under {SCENES}")
        return 2
    spec = benchmark_spec()
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}-seed{args.seed}"
    try:
        return measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec: dict, work: Path) -> int:
    speed = SpeedProbe()
    speed.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload, iv = speed.timed(setup, WORKLOADS[args.workload], work, args.seed)
            setups.append(iv.scaled())
        setup_s = statistics.median(setups)
        cli = importlib.import_module("errdiff.cli")
        run = Run(workload.round_ops(), workload.VERIFY_PASSES)

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(run.rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                play_round(cli, run, speed, traced)
            finally:
                if traced:
                    tracer.uninstall()
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or len(run.rounds) % 2 == 0):
                break
    finally:
        speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check()
    bad_ops = {key for key, found in problems.items() if found}
    bad_ops |= {key for key, seen in run.digests.items() if len(seen) > 1}
    for key, found in sorted(problems.items()):
        for p in found:
            say(f"check failed: {key}: {p}")
    for key, seen in sorted(run.digests.items()):
        if len(seen) > 1:
            say(f"check failed: {key}: outputs differ between identical rounds")
    failed = sum(1 for key, code in run.results if code != 0 or key in bad_ops)
    correct = not bad_ops

    if tracer is None:
        rounds = run.rounds
        values = {
            "setup_s": setup_s,
            "solve_s": statistics.median(r["solve"] for r in rounds),
            "verify_s": statistics.median(r["verify"] for r in rounds),
            "game_steps_per_s": statistics.median(r["steps"] / r["simulate"] for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        listed = spec["end_to_end"]
    else:
        traced = [r["all"] for r in run.rounds if r["traced"]]
        plain = [r["all"] for r in run.rounds if not r["traced"]]
        traced_speed = Interval.combined(r["speed"] for r in run.rounds if r["traced"])
        values = tracer.layer_values(len(traced), traced_speed.scale())
        values["operators.rounding_events"] = run.rounding_events / len(traced)
        values["dynamics.state_bits_max"] = workload.state_bits
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        values["trace.spans"] = len(tracer.span_start) / len(traced)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(spans)
        say(f"wrote {len(tracer.span_start)} spans to {spans}")
        if tracer.absent:
            say("absent: " + ", ".join(tracer.absent))
        listed = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    rounds = len(run.rounds)
    say(f"{args.workload}: {rounds} rounds, {len(run.results)} operations, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": len(run.results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
