#!/usr/bin/env python3
"""Show that each benchmark check rejects a wrong answer and passes a right one.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Wrong answers: a shrunken g-set, a game trace with one output altered, a set
that is not invariant, and an f-set that misses part of a member hull.
Real artifacts come from errdiff's CLI on the shipped scenes.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import (  # noqa: E402
    check_delayed_trace,
    check_undelayed_trace,
    fset_problems,
    gset_problems,
    invariant_set_problems,
    members_of,
    read_set,
)

SCENES = ROOT / "scenes"
SCRATCH = HERE / "out"


def scratch_dir():
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def errdiff(*argv: str) -> int:
    from errdiff.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def scene(stem: str) -> dict:
    return json.loads((SCENES / f"{stem}.json").read_text())


def scaled(ring, k: Fraction):
    return [(x * k, y * k) for x, y in ring]


def write_set(path: Path, ring, converged: bool = True, iterations: int = 1) -> Path:
    path.write_text(json.dumps({"converged": converged, "iterations": iterations,
                                "stop": "fixed-point",
                                "vertices": [[str(x), str(y)] for x, y in ring]}))
    return path


def test_shrunken_gset_is_rejected():
    with scratch_dir() as tmp:
        out = Path(tmp)
        assert errdiff("min-gset", "--scene", str(SCENES / "unit_square.json"),
                       "--out", str(out)) == 0
        members = members_of(scene("unit_square"), "unit-square")
        good = out / "unit-square.gset.json"
        assert gset_problems(good, members, "unit_square", "g") == []
        _, ring = read_set(good)
        bad = write_set(out / "shrunk.json", scaled(ring, Fraction(9, 10)))
        found = gset_problems(bad, members, "unit_square", "g")
        assert any("box" in p for p in found), found
        assert any("outside itself" in p for p in found), found
        # the reachable cloud alone also catches it
        assert checks.cloud_problems(scaled(ring, Fraction(9, 10)), members)


def test_paper_iteration_count_is_enforced():
    with scratch_dir() as tmp:
        out = Path(tmp)
        assert errdiff("min-gset", "--scene", str(SCENES / "sset1.json"), "--out", str(out)) == 0
        members = members_of(scene("sset1"), "sset1")
        payload, ring = read_set(out / "sset1.gset.json")
        assert gset_problems(out / "sset1.gset.json", members, "sset1", "g") == []
        bad = write_set(out / "late.json", ring, iterations=payload["iterations"] + 1)
        assert any("the paper has 4" in p for p in gset_problems(bad, members, "sset1", "g"))


def test_set_that_is_not_invariant_is_rejected():
    with scratch_dir() as tmp:
        out = Path(tmp)
        # the second iterate of the chain: star-shaped, but g still grows it
        assert errdiff("min-gset", "--scene", str(SCENES / "sset1.json"), "--out", str(out),
                       "--max-iter", "2") == 2
        _, ring = read_set(out / "sset1.gset.json")
        found = invariant_set_problems(ring, members_of(scene("sset1"), "sset1"))
        assert any("outside itself" in p for p in found), found
    stored = members_of(scene("sset3"), "sset3")
    _, ring = read_set(HERE / "data" / "sset3.gset.json")
    assert invariant_set_problems(ring, stored) == []
    assert invariant_set_problems(scaled(ring, Fraction(19, 20)), stored)


def test_fset_missing_a_hull_is_rejected():
    with scratch_dir() as tmp:
        out = Path(tmp)
        assert errdiff("min-fset", "--scene", str(SCENES / "sset2.json"), "--out", str(out)) == 0
        members = members_of(scene("sset2"), "sset2")
        assert fset_problems(out / "sset2.fset.json", members) == []
        _, ring = read_set(out / "sset2.fset.json")
        bad = write_set(out / "small.json", scaled(ring, Fraction(1, 2)))
        assert any("hull leaves" in p for p in fset_problems(bad, members))


def _alter_output(path: Path, step: int, y) -> Path:
    lines = path.read_text().splitlines()
    record = json.loads(lines[step])
    record["y"] = [str(y[0]), str(y[1])]
    lines[step] = json.dumps(record)
    altered = path.with_name("altered.jsonl")
    altered.write_text("\n".join(lines) + "\n")
    return altered


def test_altered_undelayed_output_is_rejected():
    with scratch_dir() as tmp:
        out = Path(tmp)
        assert errdiff("simulate", "--scene", str(SCENES / "sset3.json"), "--out", str(out),
                       "--steps", "300") == 0
        trace = out / "random-walk.trace.jsonl"
        sites = members_of(scene("sset3"), "sset3")[0]
        _, region = read_set(HERE / "data" / "sset3.gset.json")
        assert check_undelayed_trace(trace, {"S": sites}, region, 300).problems == []
        y = tuple(Fraction(v) for v in json.loads(trace.read_text().splitlines()[123])["y"])
        other = next(c for c in sites if c != y)
        found = check_undelayed_trace(_alter_output(trace, 123, other),
                                      {"S": sites}, region, 300).problems
        assert any("not a nearest site" in p for p in found), found
        assert any("step 124" in p for p in found), found  # the carried error breaks too


def test_altered_delayed_output_is_rejected():
    with scratch_dir() as tmp:
        out = Path(tmp)
        assert errdiff("simulate", "--scene", str(SCENES / "triangle.json"), "--out", str(out),
                       "--steps", "300") == 0
        trace = out / "delayed-random-heights.trace.jsonl"
        assert check_delayed_trace(trace, 300).problems == []
        record = json.loads(trace.read_text().splitlines()[57])
        y = (Fraction(record["y"][0]), Fraction(record["y"][1]))
        found = check_delayed_trace(_alter_output(trace, 57, (y[0] + Fraction(1, 3), y[1])),
                                    300).problems
        assert any("nearest point" in p for p in found), found


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} of {len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
