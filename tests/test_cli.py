"""Command-line surface: artifacts, exit codes, determinism."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import errdiff
import errdiff.cli
from errdiff.cli import main
from errdiff.geometry import pt, ratios, vertex_ratios
from errdiff.scene import load_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def package_env() -> dict:
    """The environment with the directory above the imported errdiff first
    on PYTHONPATH, so a child interpreter imports the same package."""
    env = dict(os.environ)
    root = str(Path(errdiff.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return env


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "artifacts"


class TestMinGset:
    def test_four_iterations_on_the_eight_point_star(self, out, capsys):
        code = run_cli("min-gset", "--scene", SCENES / "sset1.json", "--out", out)
        assert code == 0
        payload = read_json(out / "sset1.gset.json")
        assert payload["iterations"] == 4
        assert payload["converged"] is True
        assert payload["rounding_free"] is True
        assert "after 4 iterations" in capsys.readouterr().out

    def test_one_iteration_on_the_three_by_three_grid(self, out):
        assert run_cli("min-gset", "--scene", SCENES / "sset4.json",
                       "--out", out) == 0
        payload = read_json(out / "sset4.gset.json")
        assert payload["iterations"] == 1
        corners = {tuple(v) for v in payload["vertices"]}
        assert corners == {("-1", "-1"), ("1", "-1"), ("1", "1"), ("-1", "1")}

    def test_log_lines_are_json_records(self, out):
        run_cli("min-gset", "--scene", SCENES / "sset1.json", "--out", out)
        lines = (out / "sset1.gset.log.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1]["converged"] is True
        assert all("vertices" in r for r in records[:-1])

    def test_exit_two_when_iteration_is_cut_short(self, out):
        code = run_cli("min-gset", "--scene", SCENES / "sset2.json",
                       "--out", out, "--max-iter", 2)
        assert code == 2
        assert read_json(out / "sset2.gset.json")["converged"] is False

    def test_certified_run_reports_its_gap(self, out, capsys):
        assert run_cli("min-gset", "--scene", SCENES / "sset3.json",
                       "--out", out) == 0
        payload = read_json(out / "sset3.gset.json")
        assert payload["converged"] is True and payload["stop"] == "certified"
        assert payload["rounding_free"] is False
        assert Fraction(payload["gap"]) > 0
        lines = (out / "sset3.gset.log.jsonl").read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["gap"] == payload["gap"]
        assert len(lines) == payload["iterations"] + 1
        assert "sset3: g converged" in capsys.readouterr().out

    def test_convex_variant(self, out):
        code = run_cli("min-gset", "--convex", "--scene", SCENES / "sset1.json",
                       "--out", out)
        assert code == 0
        payload = read_json(out / "sset1.gset.json")
        assert payload["operator"] == "G"
        assert payload["iterations"] == 4

    def test_no_flag_carries_over_to_the_next_call(self, tmp_path):
        # the parser is built once per process; each call parses afresh
        for flags, op in ((["--convex", "--max-iter", 2], "G"), ([], "g")):
            out = tmp_path / op
            run_cli("min-gset", *flags, "--scene", SCENES / "sset1.json", "--out", out)
            payload = read_json(out / "sset1.gset.json")
            assert payload["operator"] == op
            assert payload["converged"] is (op == "g")


# two members that share no site
APART = {"collections": {"apart": [
    {"id": "A", "points": [["0", "0"], ["1", "0"], ["0", "1"]]},
    {"id": "B", "points": [["2", "0"], ["3", "0"], ["2", "1"]]}]}}


class TestMinFset:
    def test_unit_square_region_is_the_half_margin_box(self, out):
        assert run_cli("min-fset", "--scene", SCENES / "unit_square.json",
                       "--out", out) == 0
        payload = read_json(out / "unit-square.fset.json")
        assert payload["operator"] == "p"
        assert {tuple(v) for v in payload["vertices"]} == {
            ("-1/2", "-1/2"), ("3/2", "-1/2"), ("3/2", "3/2"), ("-1/2", "3/2")}

    def test_members_that_share_no_site_are_refused(self, tmp_path, capsys):
        scene = tmp_path / "apart.json"
        scene.write_text(json.dumps(APART))
        assert run_cli("min-fset", "--scene", scene, "--out", tmp_path / "out") == 3
        assert "members of 'apart' share no site to seed from" in capsys.readouterr().err


class TestSimulate:
    def test_trace_artifact_shape(self, out):
        assert run_cli("simulate", "--scene", SCENES / "sset1.json",
                       "--out", out, "--steps", 20) == 0
        lines = (out / "random-walk.trace.jsonl").read_text().splitlines()
        assert len(lines) == 21
        first, last = json.loads(lines[0]), json.loads(lines[-1])
        assert first["step"] == 0 and first["e"] == ["0", "0"]
        assert last["steps"] == 20 and last["mode"] == "undelayed"

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            run_cli("simulate", "--scene", SCENES / "sset1.json",
                    "--out", d, "--steps", 50)
        assert (a / "random-walk.trace.jsonl").read_bytes() == \
            (b / "random-walk.trace.jsonl").read_bytes()

    def test_seed_override_changes_the_walk(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--scene", SCENES / "sset1.json", "--out", a,
                "--steps", 50)
        run_cli("simulate", "--scene", SCENES / "sset1.json", "--out", b,
                "--steps", 50, "--seed", 99)
        assert (a / "random-walk.trace.jsonl").read_bytes() != \
            (b / "random-walk.trace.jsonl").read_bytes()

    def test_delayed_triangle_scene(self, out):
        assert run_cli("simulate", "--scene", SCENES / "triangle.json",
                       "--out", out, "--steps", 40) == 0
        lines = (out / "delayed-random-heights.trace.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["mode"] == "delayed"


class _StrayOpponent:
    """Plays the first hull vertex, then a point outside every hull at
    round 1500, after the writer has flushed part of the trace; each as
    Ratios, the type a game's opponent hands over."""

    seed = None

    def pick(self, fs, error, n, rng):
        return ratios(pt(5, 5)) if n == 1500 else vertex_ratios(fs.ring, 0)


class TestSimulateFailures:
    """A failed simulate exits 3 with its message and leaves no trace file."""

    def test_negative_steps_are_rejected_before_the_file_opens(self, out, capsys):
        assert run_cli("simulate", "--scene", SCENES / "sset1.json",
                       "--out", out, "--steps", -1) == 3
        assert capsys.readouterr().err == "error: steps must be nonnegative\n"
        assert list(out.iterdir()) == []

    def test_input_outside_the_hull_mid_game_removes_the_partial_trace(
            self, out, capsys, monkeypatch):
        def stray_scene(path):
            # the scene as parsed, every simulation's opponent replaced
            scene = load_scene(path)
            return dataclasses.replace(scene, simulations={
                name: dataclasses.replace(spec, opponent=_StrayOpponent())
                for name, spec in scene.simulations.items()})

        monkeypatch.setattr(errdiff.cli, "load_scene", stray_scene)
        assert run_cli("simulate", "--scene", SCENES / "sset1.json",
                       "--out", out, "--steps", 2000) == 3
        assert capsys.readouterr().err == "error: input (5, 5) outside hull of S\n"
        assert list(out.iterdir()) == []

    def test_memory_does_not_grow_with_the_step_count(self, tmp_path):
        # one process plays 2 000 and then 60 000 delayed rounds; a game held
        # whole until written would add tens of MiB to the peak
        code = (
            "import resource, sys\n"
            "from errdiff.cli import main\n"
            "peaks = []\n"
            "for steps in ('2000', '60000'):\n"
            "    assert main(['simulate', '--scene', sys.argv[1], '--out', sys.argv[2],\n"
            "                 '--steps', steps]) == 0\n"
            "    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "print(peaks[1] - peaks[0])\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SCENES / "triangle.json"), str(tmp_path)],
            capture_output=True, text=True, check=True, env=package_env())
        assert int(proc.stdout.splitlines()[-1]) < 4 * 1024  # ru_maxrss is in KiB


class TestVerify:
    def test_good_artifacts_pass(self, out, capsys):
        run_cli("min-gset", "--scene", SCENES / "sset1.json", "--out", out)
        code = run_cli("verify", "--scene", SCENES / "sset1.json", "--out", out)
        assert code == 0
        checks = read_json(out / "sset1.verify.json")["checks"]
        assert [c["check"] for c in checks] == [
            "is_invariant_g", "is_star_convex_origin",
            "covers_translated_inner_cells"]
        assert all(c["passed"] for c in checks)
        assert "FAIL" not in capsys.readouterr().out

    def test_fset_checks(self, out):
        run_cli("min-fset", "--scene", SCENES / "unit_square.json", "--out", out)
        assert run_cli("verify", "--scene", SCENES / "unit_square.json",
                       "--out", out) == 0
        checks = read_json(out / "unit-square.verify.json")["checks"]
        assert [c["check"] for c in checks] == [
            "is_invariant_p", "contains_union_of_hulls"]

    def test_exit_four_on_a_non_invariant_artifact(self, out):
        run_cli("min-gset", "--scene", SCENES / "sset2.json", "--out", out,
                "--max-iter", 2)
        code = run_cli("verify", "--scene", SCENES / "sset2.json", "--out", out)
        assert code == 4
        checks = read_json(out / "sset2.verify.json")["checks"]
        bad = [c for c in checks if not c["passed"]]
        assert bad and all(c["witnesses"] for c in bad)

    def test_a_g_set_that_is_not_star_shaped_is_reported(self, out, capsys):
        # the triangle misses the origin, so the g operator cannot take it:
        # verify reports the star check with its witnesses and skips
        # invariance instead of rejecting the input
        out.mkdir(parents=True)
        (out / "sset1.gset.json").write_text(
            json.dumps({"vertices": [["1", "1"], ["3", "1"], ["3", "3"]]}))
        code = run_cli("verify", "--scene", SCENES / "sset1.json", "--out", out)
        assert code == 4
        checks = read_json(out / "sset1.verify.json")["checks"]
        assert [c["check"] for c in checks] == [
            "is_star_convex_origin", "covers_translated_inner_cells"]
        star = checks[0]
        assert not star["passed"] and star["witnesses"] == [["2", "1"]]
        assert "is_invariant_g not checked" in star["notes"]
        assert "sset1: is_star_convex_origin: FAIL" in capsys.readouterr().out

    def test_an_f_set_whose_pieces_are_not_star_shaped_gets_a_verdict(self, out):
        # the triangle holds no site, so its cell pieces miss their sites
        # and p takes its general route
        out.mkdir(parents=True)
        (out / "sset1.fset.json").write_text(
            json.dumps({"vertices": [["1", "1"], ["3", "1"], ["3", "3"]]}))
        code = run_cli("verify", "--scene", SCENES / "sset1.json", "--out", out)
        assert code == 4
        invariant = read_json(out / "sset1.verify.json")["checks"][0]
        assert invariant["check"] == "is_invariant_p" and not invariant["passed"]
        assert invariant["witnesses"] == [["-5/2", "1"]]
        assert invariant["notes"] == "image has 11 vertices"

    def test_an_f_set_over_members_that_share_no_site_gets_a_verdict(self, tmp_path, out):
        scene = tmp_path / "apart.json"
        scene.write_text(json.dumps(APART))
        out.mkdir(parents=True)
        (out / "apart.fset.json").write_text(json.dumps(
            {"vertices": [["-1", "-1"], ["4", "-1"], ["4", "2"], ["-1", "2"]]}))
        assert run_cli("verify", "--scene", scene, "--out", out) == 4
        invariant, hulls = read_json(out / "apart.verify.json")["checks"]
        assert not invariant["passed"] and invariant["witnesses"] == [["5", "1"]]
        assert hulls["passed"] and hulls["notes"] == "checked 2 member hulls"

    def test_exit_three_when_nothing_to_verify(self, out):
        out.mkdir(parents=True)
        assert run_cli("verify", "--scene", SCENES / "sset1.json",
                       "--out", out) == 3

    def test_triangle_family_scene(self, out):
        assert run_cli("verify", "--scene", SCENES / "triangle.json",
                       "--out", out) == 0
        assert read_json(out / "pv.verify.json") == {
            "triangle_family": "pv",
            "checks": [{"check": "triangle_family_check", "passed": True,
                        "witnesses": [],
                        "notes": "exact: 24 vertices of the 7 normal-fan pieces of T(h)"}]}

    def test_verify_seed_changes_nothing(self, out):
        # --seed stays accepted, for scripts that pass it, but every check
        # is exact, so no seed can change a byte of the report
        texts = []
        for seed in (1, 987654):
            assert run_cli("verify", "--scene", SCENES / "triangle.json",
                           "--out", out / str(seed), "--seed", seed) == 0
            texts.append((out / str(seed) / "pv.verify.json").read_text())
        assert texts[0] == texts[1]


class TestOtherCommands:
    def test_report_assumptions(self, out):
        assert run_cli("report-assumptions", "--scene", SCENES / "ssprime.json",
                       "--out", out) == 0
        payload = read_json(out / "assumptions.json")
        assert set(payload) == {"ssprime"}
        assert payload["ssprime"]["max_hull_diameter_sq"] == "8"

    def test_render_writes_svg(self, out):
        run_cli("min-gset", "--scene", SCENES / "sset1.json", "--out", out)
        run_cli("simulate", "--scene", SCENES / "sset1.json", "--out", out,
                "--steps", 30)
        assert run_cli("render", "--scene", SCENES / "sset1.json",
                       "--out", out) == 0
        svg = (out / "sset1.svg").read_text()
        assert svg.startswith("<svg ")
        assert "<polyline" in svg and "<circle" in svg

    def test_render_without_artifacts(self, out):
        assert run_cli("render", "--scene", SCENES / "unit_square.json",
                       "--out", out) == 0
        assert (out / "unit_square.svg").exists()


# a stored set whose boundary crosses itself
PENTAGRAM = [["0", "5"], ["3", "-4"], ["-5", "2"], ["5", "2"], ["-3", "-4"]]


class TestFailureModes:
    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_self_intersecting_stored_set(self, out, capsys, command):
        out.mkdir(parents=True)
        (out / "sset1.fset.json").write_text(json.dumps({"vertices": PENTAGRAM}))
        assert run_cli(command, "--scene", SCENES / "sset1.json", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sset1.fset.json" in err
        assert "boundary self-intersects" in err

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_zero_area_stored_set_names_its_file(self, out, capsys, command):
        out.mkdir(parents=True)
        (out / "sset1.gset.json").write_text(
            json.dumps({"vertices": [["0", "0"], ["1", "1"], ["2", "2"]]}))
        assert run_cli(command, "--scene", SCENES / "sset1.json", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sset1.gset.json" in err
        assert "ring has zero area" in err

    @pytest.mark.parametrize("payload", [
        {}, [], {"vertices": [["1/0", "0"], ["1", "0"], ["0", "1"]]}])
    def test_malformed_stored_set(self, out, capsys, payload):
        out.mkdir(parents=True)
        (out / "sset1.gset.json").write_text(json.dumps(payload))
        assert run_cli("verify", "--scene", SCENES / "sset1.json", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sset1.gset.json" in err

    def test_digit_separator_in_a_stored_set_names_its_file(self, out, capsys):
        # refused on every supported Python, not only where Fraction does
        out.mkdir(parents=True)
        (out / "sset1.gset.json").write_text(
            json.dumps({"vertices": [["0", "0"], ["1_0", "0"], ["0", "1"]]}))
        assert run_cli("verify", "--scene", SCENES / "sset1.json", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sset1.gset.json" in err
        assert "not a rational literal: '1_0'" in err

    def test_malformed_literal_in_a_stored_set_names_itself(self, out, capsys):
        # the same message on every supported Python, whatever Fraction says
        out.mkdir(parents=True)
        (out / "sset1.gset.json").write_text(
            json.dumps({"vertices": [["0", "0"], ["1.d", "0"], ["0", "1"]]}))
        assert run_cli("verify", "--scene", SCENES / "sset1.json", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sset1.gset.json" in err
        assert "not a rational literal: '1.d'" in err

    def test_truncated_stored_set_names_its_file(self, out, capsys):
        out.mkdir(parents=True)
        (out / "sset1.fset.json").write_text('{"vertices": [["0", "0"], ["1", "0"]')
        assert run_cli("verify", "--scene", SCENES / "sset1.json", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sset1.fset.json" in err
        assert "not valid JSON" in err

    def test_trace_line_that_is_not_json_names_its_file(self, out, capsys):
        out.mkdir(parents=True)
        (out / "random-walk.trace.jsonl").write_text('{"e": ["0", "0"]}\n{"e": [\n')
        assert run_cli("render", "--scene", SCENES / "sset1.json", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "random-walk.trace.jsonl" in err
        assert "line 2 is not valid JSON" in err

    def test_trace_line_without_a_point(self, out, capsys):
        out.mkdir(parents=True)
        (out / "random-walk.trace.jsonl").write_text('{"x": 1}\n')
        assert run_cli("render", "--scene", SCENES / "sset1.json", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "random-walk.trace.jsonl" in err

    def test_missing_scene_file(self, out):
        assert run_cli("min-gset", "--scene", "/no/such/scene.json",
                       "--out", out) == 3

    def test_scene_that_is_a_directory(self, out, capsys):
        assert run_cli("verify", "--scene", SCENES, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(SCENES) in err

    def test_out_that_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("verify", "--scene", SCENES / "sset1.json", "--out", taken) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken" in err

    def test_malformed_scene(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run_cli("min-gset", "--scene", bad, "--out", tmp_path) == 3

    def test_degenerate_scene(self, tmp_path, capsys):
        bad = tmp_path / "degenerate.json"
        bad.write_text(json.dumps(
            {"collections": {"c": [{"points": [["0", "0"], ["1", "1"]]}]}}))
        assert run_cli("min-gset", "--scene", bad, "--out", tmp_path) == 3
        assert "DegenerateHull" in capsys.readouterr().err

    def test_bad_epsilon_flag(self, out, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("min-gset", "--scene", SCENES / "sset1.json",
                    "--out", out, "--epsilon", "1/100")
        assert exc.value.code == 3
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--no-rounding"], ["--k", "300"],
                                      ["--r", "10"], ["--s", "20"]])
    def test_rounding_flags_are_gone(self, out, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("min-gset", "--scene", SCENES / "sset1.json", "--out", out, *flag)
        assert exc.value.code == 3

    @pytest.mark.parametrize("command", ["min-gset", "min-fset",
                                         "report-assumptions", "render"])
    def test_seed_only_where_it_is_read(self, out, command, capsys):
        # only simulate draws random numbers; verify accepts --seed and
        # ignores it
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--scene", SCENES / "sset1.json", "--out", out, "--seed", 1)
        assert exc.value.code == 3
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_bad_flag_value_exits_three(self, out, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("min-gset", "--scene", SCENES / "sset1.json",
                    "--out", out, "--max-iter", "abc")
        assert exc.value.code == 3
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_max_iter_below_one_exits_three(self, out, capsys):
        assert run_cli("min-gset", "--scene", SCENES / "sset1.json",
                       "--out", out, "--max-iter", 0) == 3
        assert capsys.readouterr().err == "error: max_iter must be at least 1\n"
        assert list(out.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("min-gset", "-h")
        assert exc.value.code == 0
        assert "--convex" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "errdiff.cli", "min-gset",
             "--scene", str(SCENES / "sset4.json"), "--out", str(tmp_path)],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0
        assert "after 1 iteration," in proc.stdout


# sha256 of every file that min-gset and min-fset, plain and --convex, write
# for the small shipped scenes, recorded before the ring layer moved to
# integers over one common denominator; the sset3 and ssprime min-gset and
# min-fset entries pin the certified runs (ssprime is the one multi-member
# scene, and so the one whose runs unite member images), recorded once the
# snap moved from one denominator bound to rungs sized by each iterate's
# own denominator, which shortened the runs and left their sets as they
# were (test_operators.CERTIFIED_SETS pins those).  The report-assumptions
# and render entries, what they write into an empty --out (the inner
# cells' diameters, and the drawn cells of the five scenes with bounded
# cells), were recorded while bounded cells were still clipped from a
# growing box
PINNED_ARTIFACTS = {
    ("square_center", "min-fset"): {
        "square-center.fset.json":
            "0c1ec08ed66ee5c5907fabba6754e895c25ccffaeb197113b5860c2c674e72c9",
        "square-center.fset.log.jsonl":
            "f616d51dd3dd6b9f6009c560a4ec6677bb50f04241ff5266926c9a7a6b58d0ab",
    },
    ("square_center", "min-fset --convex"): {
        "square-center.fset.json":
            "24d57d9bf5090b1eddad7d1f6daa37acc132b41ea85a6b52e2379b7ece4f1be7",
        "square-center.fset.log.jsonl":
            "f616d51dd3dd6b9f6009c560a4ec6677bb50f04241ff5266926c9a7a6b58d0ab",
    },
    ("square_center", "min-gset"): {
        "square-center.gset.json":
            "70ff4304da9502f569c0341f57a7d448aae21d8d00d1480b59a95a865934c92a",
        "square-center.gset.log.jsonl":
            "873032787aa0813ef2cb668c34f7369f033c3e58c8a1d81450e2d0426dfbeff7",
    },
    ("square_center", "min-gset --convex"): {
        "square-center.gset.json":
            "030bcd823a5965fe951433aa17047c17d1ad0fd97165420fbdca7d3679ff8f1e",
        "square-center.gset.log.jsonl":
            "873032787aa0813ef2cb668c34f7369f033c3e58c8a1d81450e2d0426dfbeff7",
    },
    ("sset1", "min-fset"): {
        "sset1.fset.json":
            "65519c8a507e0cc56654189610232238d20ada616b42a5ac2baef75480ef7c75",
        "sset1.fset.log.jsonl":
            "1130d5cedb7ab80c274cfae1b8efe5e40d2befd8d5d7099c5e7c49c133b2be38",
    },
    ("sset1", "min-fset --convex"): {
        "sset1.fset.json":
            "dc0f237be050c339f1134641c4ffbb0e2a437483783744102011da695e62f51a",
        "sset1.fset.log.jsonl":
            "28f0cee9ed617e71da6d244b4ec0ca3ca256d57b20fd729b7a81c186fefcd5d8",
    },
    ("sset1", "min-gset"): {
        "sset1.gset.json":
            "40eca6c6e1d06fd9d5e1cf26bd0d37f412d28858b124a701a5ae62ea23efa39a",
        "sset1.gset.log.jsonl":
            "2a403793303c582a64b3673b04600c488f28d44865eb348717b10c19e0df76b1",
    },
    ("sset1", "min-gset --convex"): {
        "sset1.gset.json":
            "7014c6a206dc21a1983a63542eb5b2b425ee4f94e4bdc035632528785735c75a",
        "sset1.gset.log.jsonl":
            "eb12fa0fe91396fdd8d1c5dc8dd3409804af121bbdec77cfcd209f10c77ead36",
    },
    ("sset2", "min-fset"): {
        "sset2.fset.json":
            "fe13d7132bf82a775fefbe27f7be619565aeac8cffb35d87d28bc856a6f05b52",
        "sset2.fset.log.jsonl":
            "865f727ed2f731f629dca07cd8ac380f2383dea8358ebf611296a3ad86df7363",
    },
    ("sset2", "min-fset --convex"): {
        "sset2.fset.json":
            "6f12ba453516bf35e8085c09701eafed74ea80c0055cb4ba41db892aeb274ee5",
        "sset2.fset.log.jsonl":
            "6da7d18c9c4e773586eecce2c7c3bd1be7b33e77ba014e0390f81ab1ea790cf2",
    },
    ("sset2", "min-gset"): {
        "sset2.gset.json":
            "109011b3e9990e89da670e7c2a9b98d0470b1d09682a59409b9ef0c64dc184fd",
        "sset2.gset.log.jsonl":
            "8fc3ff26369c0ef2886ee83a10b0193be37ae649e3d6364ff25f1d87e87cfe1b",
    },
    ("sset2", "min-gset --convex"): {
        "sset2.gset.json":
            "404b4bfab671f4be6a2600f6c2c3317857a018b225cf0df6d5fe5e85083ac180",
        "sset2.gset.log.jsonl":
            "34b10c7453dfe4f613878048be5c864abbffe1eb4b931f0f5458af51ea4e0751",
    },
    ("sset4", "min-fset"): {
        "sset4.fset.json":
            "2200841468ca84e9c141a6085f61c471c02b2795a76d83edc90b4dc05d6ed7b8",
        "sset4.fset.log.jsonl":
            "873032787aa0813ef2cb668c34f7369f033c3e58c8a1d81450e2d0426dfbeff7",
    },
    ("sset4", "min-fset --convex"): {
        "sset4.fset.json":
            "4f665feb04d5df7b83e0ca9ddc43d51075b8b93ac2f75c6c0cbebbdea8a8df31",
        "sset4.fset.log.jsonl":
            "873032787aa0813ef2cb668c34f7369f033c3e58c8a1d81450e2d0426dfbeff7",
    },
    ("sset4", "min-gset"): {
        "sset4.gset.json":
            "9c9abbc15a5d976868ecebe09c20c621c42ab60a0ad10356753086069b47821b",
        "sset4.gset.log.jsonl":
            "5f11835f48f45e5d573c19ac8cba68b69001c85f90a1f46de709169cd00a1b6f",
    },
    ("sset4", "min-gset --convex"): {
        "sset4.gset.json":
            "0b384040d45a4fd624d42b878f493c7bfd8be6769edbd8bb46de9d308af410a3",
        "sset4.gset.log.jsonl":
            "5f11835f48f45e5d573c19ac8cba68b69001c85f90a1f46de709169cd00a1b6f",
    },
    ("sset3", "min-fset"): {
        "sset3.fset.json":
            "246ff2e2a98258372ec3433aa430ceb8220b8967a0932bbac4c41cea222899c2",
        "sset3.fset.log.jsonl":
            "52f04edf7350598f33fd938311c0678b9f1aa74ddaedb0b741f7163e35730090",
    },
    ("sset3", "min-fset --convex"): {
        "sset3.fset.json":
            "71c4f37a62910847a32b9f6dafec3147067a06f591dd30e1601d95433c681f94",
        "sset3.fset.log.jsonl":
            "18a35c051916af04dcaf52170adc885516cc4554557ccc45f0f90f82f039da34",
    },
    ("sset3", "min-gset"): {
        "sset3.gset.json":
            "0285c4a0f3db547bbe727143c2c90f36a6dbe3e781b45ce9f9556f72325b9292",
        "sset3.gset.log.jsonl":
            "ef422e5b62521484c81541e1f631e0eb67e2271d538fad12e71870fd65b7852d",
    },
    ("sset3", "min-gset --convex"): {
        "sset3.gset.json":
            "57275741f63bc78e514a45495467ae0788fd077df1aec574f0a3e196adcc75dc",
        "sset3.gset.log.jsonl":
            "4d7c6e5d81de7b3da6fb349a96eb901483139dbec66137f83f8f2a36cba74621",
    },
    ("ssprime", "min-fset"): {
        "ssprime.fset.json":
            "078a7a1820b15e402c8544dc43ca94a4ec5bfe8ed25c186b67177a1056d10333",
        "ssprime.fset.log.jsonl":
            "1710b68644312cf9d541817e13efabee0b9b6f95b17a896354b9b9032dfb4185",
    },
    ("ssprime", "min-fset --convex"): {
        "ssprime.fset.json":
            "36585ccecaffad3cd0c403e7cfb7ef07dd4670b5f7cefde8c3de30563cdfa121",
        "ssprime.fset.log.jsonl":
            "b3bf27aa9461d404745e26f16c1009e9fc73de529a52e31a5af355ef7f21bb80",
    },
    ("ssprime", "min-gset"): {
        "ssprime.gset.json":
            "cb3ba86c4b3054e7cdc8751a6d49d6261115715217034d8a2835469812139f02",
        "ssprime.gset.log.jsonl":
            "fa8dc2076ef26b91435bee3a6d68210a91f08bfb78b0410aa0b63127b26373da",
    },
    ("ssprime", "min-gset --convex"): {
        "ssprime.gset.json":
            "f6049fce73b87bcacd27a4fb9ac8e440f3b3cc43ef13296122ce71f846598c08",
        "ssprime.gset.log.jsonl":
            "f1354a34834eaacbc823a0579be13fb357f7535378cb49ee9e0b954aa022c992",
    },
    ("unit_square", "min-fset"): {
        "unit-square.fset.json":
            "4f0e533636df43f71ec138762ca233c4f9eb0b008c3ee220807e13064befaa27",
        "unit-square.fset.log.jsonl":
            "873032787aa0813ef2cb668c34f7369f033c3e58c8a1d81450e2d0426dfbeff7",
    },
    ("unit_square", "min-fset --convex"): {
        "unit-square.fset.json":
            "911548ec1612de8c1eb60410ab06659b864dbd382d6f7e58cf7e75677e3d884a",
        "unit-square.fset.log.jsonl":
            "873032787aa0813ef2cb668c34f7369f033c3e58c8a1d81450e2d0426dfbeff7",
    },
    ("unit_square", "min-gset"): {
        "unit-square.gset.json":
            "248f522effa9ab4e60ee867d5d13144655347d0955b78b62370f567cf8096cdd",
        "unit-square.gset.log.jsonl":
            "5f11835f48f45e5d573c19ac8cba68b69001c85f90a1f46de709169cd00a1b6f",
    },
    ("unit_square", "min-gset --convex"): {
        "unit-square.gset.json":
            "579a718e215703590ef90d9a0fd4c92ae4cf1929d9226d310a753e001cc03bff",
        "unit-square.gset.log.jsonl":
            "5f11835f48f45e5d573c19ac8cba68b69001c85f90a1f46de709169cd00a1b6f",
    },
    ("square_center", "report-assumptions"): {
        "assumptions.json":
            "687a216511b17717567289f4886382bf0112cc39daeb3d4f2f638151a5674a83",
    },
    ("square_center", "render"): {
        "square_center.svg":
            "7556ad8333f7ad32dbb86efcd15c8a955731776c63d203e6cfca6e6962540f80",
    },
    ("sset1", "report-assumptions"): {
        "assumptions.json":
            "3e2ffd6bbf9ce7b33d1c1281ee3f353cdeda4e5c03860ac7cd7d98999cd25a2a",
    },
    ("sset1", "render"): {
        "sset1.svg":
            "b4d806c10b70257350d31eb882499765c1e4da9c1ba296e4c96f984a31a8b110",
    },
    ("sset2", "report-assumptions"): {
        "assumptions.json":
            "4742690785b6cfd4c4b3c3f104817d208c49cc6c6f693c335189400a8c5f7bae",
    },
    ("sset2", "render"): {
        "sset2.svg":
            "572cadef2fd1942d3209030d9e1f872a832097af728ffc1467560d02ec62750f",
    },
    ("sset3", "report-assumptions"): {
        "assumptions.json":
            "cdb7d785a36cf109fe8d526dbe11f83aa988be243fd0db6980d200391f595b46",
    },
    ("sset3", "render"): {
        "sset3.svg":
            "5451e01fc20103a2b1c30d52f29d182757dd7821cb907f332d2db9fd600aa770",
    },
    ("sset4", "report-assumptions"): {
        "assumptions.json":
            "7ef697f15e995c8ad243d66a76f9b32717fa074df9e90071f2cb213f058ae85b",
    },
    ("sset4", "render"): {
        "sset4.svg":
            "8c805bf86f77552bdff996454b46629dd7f52d3756224bd49b379afcc217f789",
    },
    ("ssprime", "report-assumptions"): {
        "assumptions.json":
            "642d654bbdd98201643aa73547f6d0aa082219928014db132761f7ab43e8151e",
    },
    ("ssprime", "render"): {
        "ssprime.svg":
            "e7fa7a35605ee569cd98de04fc281da8ae0a7d45f60e9a340f0800733356ec83",
    },
    ("unit_square", "report-assumptions"): {
        "assumptions.json":
            "8e5e86667022184e58af0d49d22bac8c872df620f896ea69e1fa7c28219c0277",
    },
    ("unit_square", "render"): {
        "unit_square.svg":
            "6388b7baa4ab44bc5c5cfe20e522a36d82f7ac9ff9320bb4c4cd1a14376d336c",
    },
}


@pytest.mark.parametrize("scene, command", sorted(PINNED_ARTIFACTS),
                         ids=[f"{s}-{c.replace(' --', '-')}" for s, c in sorted(PINNED_ARTIFACTS)])
def test_pinned_artifacts(scene, command, out):
    assert run_cli(*command.split(), "--scene", SCENES / f"{scene}.json", "--out", out) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.iterdir()}
    assert got == PINNED_ARTIFACTS[scene, command]


# sha256 of the <name>.verify.json that verify writes after min-gset and
# min-fset, both plain or both --convex, for every shipped scene with
# collections: the verdicts, witnesses and notes.  Recorded before the
# Minkowski sum of two convex polygons moved onto the convolution-cycle walk
PINNED_VERIFY = {
    ("square_center", "plain"): {
        "square-center.verify.json":
            "53efef953446cfa17e6854b534827147cc239c0b035708fb9037ee10044cffde",
    },
    ("square_center", "convex"): {
        "square-center.verify.json":
            "53efef953446cfa17e6854b534827147cc239c0b035708fb9037ee10044cffde",
    },
    ("sset1", "plain"): {
        "sset1.verify.json":
            "91f5f9653904432639e2de4d4a2f91540b2f02b87d1d8cb407419858b66cbd55",
    },
    ("sset1", "convex"): {
        "sset1.verify.json":
            "7636091ab292a1d161ef90146ba5a4386f7c3bd79ed6baf2224443144258e11c",
    },
    ("sset2", "plain"): {
        "sset2.verify.json":
            "a9be002fe2d21a05f9c6e2962c1152c7eb99aec89c2945769a01198430027438",
    },
    ("sset2", "convex"): {
        "sset2.verify.json":
            "1ba014712a0f730c97166e25cb2fee8c967bb65376b73572b718fb889e92470e",
    },
    ("sset3", "plain"): {
        "sset3.verify.json":
            "ac63fc272664daf7640a34977b220f16602e484f734dd6a623291f847b296857",
    },
    ("sset3", "convex"): {
        "sset3.verify.json":
            "9cc660a373bef459895532a5e5e5aabf30c3a0d3a589368142980c77a65afe2e",
    },
    ("sset4", "plain"): {
        "sset4.verify.json":
            "ab8baef0ab825fa1e6312d44287069b83579f8848cc8015ebbaadd821ccba671",
    },
    ("sset4", "convex"): {
        "sset4.verify.json":
            "ab8baef0ab825fa1e6312d44287069b83579f8848cc8015ebbaadd821ccba671",
    },
    ("ssprime", "plain"): {
        "ssprime.verify.json":
            "1959432cd598c65f125c4449e0ee265cdc8ae9c56b88ed0ae1b8bd11063fbe85",
    },
    ("ssprime", "convex"): {
        "ssprime.verify.json":
            "84c1b8b5e404dc02ffd03a3cfb6844faad3d409b0e53da0f7aca4edf0afe9706",
    },
    ("unit_square", "plain"): {
        "unit-square.verify.json":
            "ae9428904b2202b8e97c29fb863716afb66cfad4003656db52af3bc72708c7ad",
    },
    ("unit_square", "convex"): {
        "unit-square.verify.json":
            "ae9428904b2202b8e97c29fb863716afb66cfad4003656db52af3bc72708c7ad",
    },
}


@pytest.mark.parametrize("scene, variant", sorted(PINNED_VERIFY),
                         ids=[f"{s}-{v}" for s, v in sorted(PINNED_VERIFY)])
def test_pinned_verify(scene, variant, out):
    path = SCENES / f"{scene}.json"
    flags = ["--convex"] if variant == "convex" else []
    for command in ("min-gset", "min-fset"):
        assert run_cli(command, *flags, "--scene", path, "--out", out) == 0
    assert run_cli("verify", "--scene", path, "--out", out) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.glob("*.verify.json")}
    assert got == PINNED_VERIFY[scene, variant]
