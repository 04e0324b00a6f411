"""The exactness contract, checked statically: no module of the package
but render.py, which formats SVG coordinates for display, reads the name
`float` or holds a float literal, so no float enters the arithmetic."""
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
