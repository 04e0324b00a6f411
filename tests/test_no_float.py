"""The exactness contract, checked statically: no module of the package
but render.py, which formats SVG coordinates for display, reads the name
`float` or holds a float literal, so no float enters the arithmetic; and
verify.py neither imports `random` nor reads `sample_hull_ratios`, so
every verdict it gives is decided, never sampled."""
import ast
from pathlib import Path

import errdiff

SRC = Path(errdiff.__file__).resolve().parent

DISPLAY_ONLY = {"render.py"}


def float_uses(src: Path) -> list[str]:
    """module:line:what for each read of the name `float` and each float
    literal in the modules of src outside DISPLAY_ONLY."""
    out = []
    for p in sorted(src.glob("*.py")):
        if p.name in DISPLAY_ONLY:
            continue
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, ast.Name) and node.id == "float":
                out.append(f"{p.name}:{node.lineno}:float")
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                out.append(f"{p.name}:{node.lineno}:{node.value!r}")
    return sorted(out)


def test_no_float_outside_rendering():
    assert float_uses(SRC) == []


def test_a_float_name_or_literal_is_found(tmp_path):
    (tmp_path / "render.py").write_text("x = float(1) + 0.5\n")
    (tmp_path / "m.py").write_text(
        "from fractions import Fraction\n\n"
        "def half(q):\n    return float(q) * 0.5\n\n"
        "def exact(q):\n    return Fraction(q, 2) + 1\n")
    assert float_uses(tmp_path) == ["m.py:4:0.5", "m.py:4:float"]


SAMPLERS = {"random", "sample_hull_ratios"}


def sampler_uses(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each import of the module `random` and each import or
    read of a name in SAMPLERS, plain or as an attribute, in path."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from random import ...`, or a name imported from any module
            names = [a.name for a in node.names] + ([node.module] if node.level == 0 else [])
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        out += [(node.lineno, name) for name in names if name in SAMPLERS]
    return sorted(set(out))


def test_verify_draws_no_random_number():
    assert sampler_uses(SRC / "verify.py") == []


def test_a_sampler_import_or_read_is_found(tmp_path):
    m = tmp_path / "m.py"
    m.write_text(
        "import random\n"
        "from .dynamics import Triangle, sample_hull_ratios\n\n"
        "def draw(fs, rng):\n    return sample_hull_ratios(fs, rng)\n\n"
        "def seeded(seed):\n    return random.Random(seed)\n\n"
        "def qualified(fs, rng):\n    return dynamics.sample_hull_ratios(fs, rng)\n"
        "from random import Random\n")
    assert sampler_uses(m) == [(1, "random"), (2, "sample_hull_ratios"),
                               (5, "sample_hull_ratios"), (8, "random"),
                               (11, "sample_hull_ratios"), (12, "random")]
