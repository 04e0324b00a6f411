"""Acceptance gate: each shipped claim runs at its stated budget.

Every test prints one `criterion NN [PASS|FAIL]` line (run with -s to see
them live).  The heavy criteria share converged sets through a module
cache, so the file is safe to run as a whole or filtered to a single
criterion.
"""
from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from errdiff.booleans import subset
from errdiff.cli import main as cli_main
from errdiff.dynamics import (
    Finite,
    Opponent,
    ScenarioProvider,
    Triangle,
    check_containment,
    finite_members,
    play,
    triangle_bound,
)
from errdiff.geometry import (
    ORIGIN,
    GeometryError,
    PointSeed,
    Region,
    dist_sq,
    point_of,
    pt,
    scalar_str,
    sub_ratios,
)
from errdiff.operators import (
    Collection,
    apply_operator,
    equal_canonical,
    iterate,
    shared_site,
)
from errdiff.scene import parse_scene
from errdiff.starunion import DisconnectedUnion
from errdiff.verify import (
    brute_force_reachable,
    contains_union_of_hulls,
    covers_translated_inner_cells,
    is_invariant_g,
    is_invariant_p,
    is_star_convex_origin,
    triangle_family_check,
)
from errdiff.voronoi import SiteSet

SCENES = Path(__file__).resolve().parent.parent / "scenes"

_scenes = {p.stem: parse_scene(p.read_text()) for p in SCENES.glob("*.json")}


def collection(stem: str) -> Collection:
    (name,) = _scenes[stem].collections
    return _scenes[stem].collections[name]


_cache: dict[str, tuple] = {}


def converged_gset(stem: str) -> tuple:
    """(IterationResult, compute seconds), memoized per collection."""
    if stem not in _cache:
        t0 = time.perf_counter()
        res = iterate("g", collection(stem), PointSeed(ORIGIN))
        _cache[stem] = (res, time.perf_counter() - t0)
    return _cache[stem]


def _criterion(num: int, title: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {title}")
    failed = [label for label, flag in checks if not flag]
    assert not failed, f"criterion {num}: failed checks: {failed}"


def _box(r) -> Region:
    return Region.from_ring([pt(-r, -r), pt(r, -r), pt(r, r), pt(-r, r)])


def _exact_g_checks(SS: Collection, Q: Region) -> list[tuple[str, bool]]:
    return [
        ("is_invariant_g", is_invariant_g(SS, Q).passed),
        ("is_star_convex_origin", is_star_convex_origin(Q).passed),
        ("covers_translated_inner_cells",
         all(covers_translated_inner_cells(S, Q).passed for S in SS)),
    ]


def test_criterion_01_eight_point_star_converges_in_four():
    res, dt = converged_gset("sset1")
    t0 = time.perf_counter()
    checks = [
        ("converged", res.converged),
        ("iteration count 4", res.iterations == 4),
        ("exact fixed point, no gap", res.stop_reason == "fixed-point" and res.gap == 0),
        *_exact_g_checks(collection("sset1"), res.final),
    ]
    checks.append(("runtime < 10 s", dt + time.perf_counter() - t0 < 10.0))
    _criterion(1, "eight-point star: minimal g-set after 4 iterations", checks)


def test_criterion_02_grid_converges_in_one():
    res, dt = converged_gset("sset4")
    t0 = time.perf_counter()
    checks = [
        ("converged", res.converged),
        ("iteration count 1", res.iterations == 1),
        *_exact_g_checks(collection("sset4"), res.final),
    ]
    checks.append(("runtime < 10 s", dt + time.perf_counter() - t0 < 10.0))
    _criterion(2, "3x3 grid: minimal g-set after 1 iteration", checks)


def test_criterion_03_sawtooth_converges_in_six():
    res, _ = converged_gset("sset2")
    checks = [
        ("converged", res.converged),
        ("iteration count 6", res.iterations == 6),
        *_exact_g_checks(collection("sset2"), res.final),
    ]
    _criterion(3, "sawtooth five points: minimal g-set after 6 iterations",
               checks)


def test_criterion_04_certified_run_flags_nearly_minimal():
    res, _ = converged_gset("sset3")
    SS = collection("sset3")
    chain = PointSeed(ORIGIN)
    for _ in range(res.iterations):
        chain = apply_operator("g", SS, chain)
    summary = res.log_records()[-1]
    nearly_minimal = not res.rounding_free
    checks = [
        ("certified within 200", res.converged and res.stop_reason == "certified"
         and res.iterations <= 200),
        ("holds the chain iterate Q_n", subset(chain, res.final)),
        ("is_invariant_g", is_invariant_g(SS, res.final).passed),
        ("gap is area2(final) - area2(Q_n)",
         res.gap == res.final.area2 - chain.area2),
        ("nearly-minimal iff the gap is positive", nearly_minimal == (res.gap > 0)),
        ("nearly minimal", nearly_minimal),
        ("summary record agrees",
         summary["stop"] == "certified" and summary["iterations"] == res.iterations
         and summary["rounding_free"] == res.rounding_free
         and summary["gap"] == scalar_str(res.gap)),
    ]
    _criterion(4, "mixed grid with defaults: certified outer set reported "
               "faithfully", checks)


def test_criterion_05_joint_gset_dominates_singles():
    res, _ = converged_gset("ssprime")
    SS = collection("ssprime")
    strict = []
    for S in SS:
        single = iterate("g", Collection((S,)), PointSeed(ORIGIN))
        strict.append(single.converged
                      and subset(single.final, res.final)
                      and not equal_canonical(single.final, res.final))
    checks = [
        ("converged within 400", res.converged and res.iterations <= 400),
        ("vertex count 9 +- 2", 7 <= len(res.final.vertices) <= 11),
        ("is_invariant_g", is_invariant_g(SS, res.final).passed),
        ("strictly contains each single-member minimal set", all(strict)),
    ]
    _criterion(5, "three-member family: joint g-set is strictly larger",
               checks)


def test_criterion_06_joint_fset_and_first_iterate():
    SS = collection("ssprime")
    s0 = shared_site(SS)
    first = apply_operator("p", SS, PointSeed(s0))
    res = iterate("p", SS, PointSeed(s0))
    checks = [
        ("seed is a shared site", all(s0 in S.sites for S in SS)),
        ("converged within 800", res.converged and res.iterations <= 800),
        ("is_invariant_p", is_invariant_p(SS, res.final).passed),
        ("contains_union_of_hulls",
         contains_union_of_hulls(SS, res.final).passed),
        ("first iterate equals the union of hulls",
         equal_canonical(first, _box(1))),
    ]
    _criterion(6, "three-member family: minimal affine region from a shared "
               "site", checks)


def test_criterion_07_convex_variant_on_the_star():
    res = iterate("G", collection("sset1"), PointSeed(ORIGIN))
    nonconvex, _ = converged_gset("sset1")
    checks = [
        ("converged", res.converged),
        ("iteration count 4", res.iterations == 4),
        ("contains the non-convex minimal set",
         subset(nonconvex.final, res.final)),
    ]
    _criterion(7, "convex variant: fourth-iteration convergence, dominates "
               "the exact set", checks)


def _random_small_sets(count: int, seed: int):
    """Seeded 4-6 point draws, until count of them have an exact g chain,
    and the tally of every draw's outcome: "kept", "degenerate" (no
    polygonal hull), "disconnected" (g's union pinches at the origin) or
    "capped" (no fixed point within _exact_chain's cap)."""
    rng = random.Random(seed)
    out = []
    tally = Counter()
    while len(out) < count:
        n = rng.choice([4, 5, 6])
        pts_ = set()
        while len(pts_) < n:
            pts_.add((rng.randint(-2, 2), rng.randint(-2, 2)))
        try:
            S = SiteSet(tuple(pt(x, y) for x, y in sorted(pts_)),
                        id=f"R{len(out)}")
        except GeometryError:
            tally["degenerate"] += 1
            continue
        try:
            chain = _exact_chain(S)
        except DisconnectedUnion:
            tally["disconnected"] += 1
            continue
        if chain is None:
            tally["capped"] += 1
            continue
        tally["kept"] += 1
        out.append((S, chain))
    return out, tally


def _exact_chain(S: SiteSet, cap: int = 60) -> list[Region] | None:
    SS = Collection((S,))
    chain = [apply_operator("g", SS, PointSeed(ORIGIN))]
    for _ in range(cap):
        nxt = apply_operator("g", SS, chain[-1])
        if equal_canonical(nxt, chain[-1]):
            return chain
        chain.append(nxt)
    return None


def test_criterion_08_reachability_oracle_agrees():
    square = SiteSet((pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)), id="sq")
    res = iterate("g", Collection((square,)), PointSeed(ORIGIN))
    half = _box(Fraction(1, 2))
    cloud = brute_force_reachable(square, steps=6)
    inside = all(half.locate(p) >= 0 for p in cloud)
    xs = sorted(p.x for p in cloud)
    ys = sorted(p.y for p in cloud)
    edge = Fraction(1, 2)
    touches = (xs[0], xs[-1]) == (-edge, edge) and \
        (ys[0], ys[-1]) == (-edge, edge)

    random_ok = True
    drawn, tally = _random_small_sets(20, seed=8)
    for S, chain in drawn:
        final = chain[-1]
        nested = all(subset(a, b) for a, b in zip(chain, chain[1:]))
        starred = all(is_star_convex_origin(q).passed for q in chain)
        invariant = is_invariant_g(Collection((S,)), final).passed
        exhaustive = brute_force_reachable(S, steps=2)
        provider = ScenarioProvider.fixed(Finite(S))
        contained = all(final.locate(p) >= 0 for p in exhaustive) and all(
            check_containment(play("undelayed", provider, Opponent(strategy, seed=0),
                                   200, seed=0), final) == []
            for strategy in ("uniform-random-in-hull", "error-aligned-vertex"))
        if not (nested and starred and invariant and contained):
            random_ok = False
            break

    checks = [
        ("computed minimal set is the half box",
         res.converged and equal_canonical(res.final, half)),
        ("exhaustive cloud stays inside", inside),
        ("cloud touches all four sides", touches),
        ("20 random sets: clouds and games contained, iterates nested and "
         "star-convex", random_ok),
        ("87 draws: 20 kept, 19 disconnected, 48 past the 60-step cap",
         tally == Counter(kept=20, disconnected=19, capped=48)),
    ]
    _criterion(8, "independent reachability oracle agrees with the "
               "iteration", checks)


_CHECKPOINTS = (1, 10, 100, 1000, 10_000, 100_000)
_SIM_STEPS = 100_000


def _undelayed_case(stem: str, strategy: str, seed: int):
    SS = collection(stem)
    members = finite_members(SS)
    if len(members) == 1:
        provider = ScenarioProvider.fixed(members[0])
    else:
        provider = ScenarioProvider.random_choice(members, seed=seed)
    opponent = Opponent(strategy, seed=seed + 1)
    return provider, opponent


def _errors(rounds):
    """(n, e_n) for n = 0, ..., steps of a streamed game, as Ratios: the
    error before each round, then the error left after the last."""
    s = None
    for s in rounds:
        yield s.n, s.qe
    if s is not None:
        yield s.n + 1, sub_ratios(s.qz, s.qy)


def test_criterion_09_undelayed_runs_stay_inside():
    # each game streams through play and is checked round by round
    checks = []
    for stem in ("sset1", "sset2", "sset3", "sset4", "ssprime"):
        Q = converged_gset(stem)[0].final
        bound = Q.diameter_sq
        for strategy in ("uniform-random-in-hull", "error-aligned-vertex"):
            provider, opponent = _undelayed_case(stem, strategy, seed=9)
            violations = []
            in_bound = True
            t0 = time.perf_counter()
            for n, e in _errors(play("undelayed", provider, opponent, _SIM_STEPS, seed=9)):
                if not Q.holds(e):
                    violations.append(n)
                if n in _CHECKPOINTS and \
                        dist_sq(point_of(e), ORIGIN) / (n * n) > bound / Fraction(n * n):
                    in_bound = False
            dt = time.perf_counter() - t0
            label = f"{stem}/{strategy}"
            checks.append((f"{label}: zero violations", not violations))
            checks.append((f"{label}: checkpoint bound", in_bound))
            checks.append((f"{label}: runtime < 60 s", dt < 60.0))
    _criterion(9, "100k-step undelayed runs: errors never leave the "
               "computed sets", checks)


def test_criterion_10_delayed_triangle_family():
    # the game streams through play: every z_n and e_n is checked as its
    # round arrives, and the error left after the last round at the end
    provider = ScenarioProvider.random_triangle(1, 1, seed=41)
    opponent = Opponent("uniform-random-in-hull", seed=43)
    envelope = Triangle(1, 1)
    bound = triangle_bound(1, 1)
    z_violations = []
    e_ok = True
    for s in play("delayed", provider, opponent, _SIM_STEPS, seed=10):
        if not envelope.holds(s.qz):
            z_violations.append(s.n)
        e_ok = e_ok and dist_sq(point_of(s.qe), ORIGIN) <= bound
    e_ok = e_ok and dist_sq(point_of(sub_ratios(s.qz, s.qy)), ORIGIN) <= bound
    family = triangle_family_check(1, 1)
    checks = [
        ("triangle_bound(1,1) == 4", bound == 4),
        ("every z_n in the envelope", not z_violations),
        ("error norm below the bound", e_ok),
        ("triangle_family_check, exact on the normal fan",
         family.passed and family.notes.startswith("exact: ")),
    ]
    _criterion(10, "100k-step delayed run over random triangle heights",
               checks)


def _pipeline(out: Path) -> None:
    scene = SCENES / "sset1.json"
    cli_main(["min-gset", "--scene", str(scene), "--out", str(out)])
    cli_main(["simulate", "--scene", str(scene), "--out", str(out),
              "--steps", "2000"])
    cli_main(["verify", "--scene", str(scene), "--out", str(out)])
    cli_main(["render", "--scene", str(scene), "--out", str(out)])
    cli_main(["report-assumptions", "--scene", str(scene), "--out", str(out)])


def test_criterion_11_identical_seeds_identical_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        _pipeline(d)
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    files_equal = names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)

    provider, opponent = _undelayed_case("sset1", "uniform-random-in-hull",
                                         seed=9)
    first = play("undelayed", provider, opponent, 2000, seed=9)
    second = play("undelayed", provider, opponent, 2000, seed=9)
    logs_equal = [json.dumps(s.as_record()) for s in first] == \
        [json.dumps(s.as_record()) for s in second]

    checks = [
        (f"pipeline artifacts byte-identical ({len(names)} files)",
         files_equal),
        ("repeated simulation serializes identically", logs_equal),
    ]
    _criterion(11, "identical seeds give byte-identical artifacts", checks)
