"""Every module-level function and class in the package is used by the
package itself or exported: code that only tests call is dead code.  An
exported name that the package never reads is library API, so README's
"Library" section names it.  Every method, property and dataclass field
of a class is read by the package as an attribute, and every defaulted
parameter is set by some call in the package, unless it is listed with
the reason it stays.  And every name a module imports is read there: an
import left behind by a deletion is dead too."""
import ast
import re
from pathlib import Path

import errdiff

SRC = Path(errdiff.__file__).resolve().parent
README = SRC.parent.parent / "README.md"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    """Bare names read in node. The package imports its own names with
    `from .module import name`, never as `module.name`, so an attribute
    read is never a use of a module-level name; imports do not count as
    uses, and a name read only in an annotation does count."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_definitions(src: Path) -> list[str]:
    """module:name of each module-level function or class of src that no
    other top-level statement of src reads and errdiff.__all__ leaves out.
    Reads inside the definition itself, such as a recursive call, do not
    count."""
    statements = [(p.name, node)
                  for p in sorted(src.glob("*.py"))
                  for node in ast.parse(p.read_text(), filename=str(p)).body]
    readers: dict[str, list[ast.AST]] = {}
    for _, node in statements:
        for name in _names(node):
            readers.setdefault(name, []).append(node)
    exported = set(errdiff.__all__)
    return [f"{module}:{node.name}" for module, node in statements
            if isinstance(node, DEFS) and node.name not in exported
            and all(r is node for r in readers.get(node.name, []))]


MEMBER_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign, ast.Assign)

# members that no module of the package reads, each with why it stays
READ_ELSEWHERE = {
    "cli.py:_Parser.error": "argparse calls it on a usage error",
    "dynamics.py:TraceStep.as_record":
        "the reference record that tests compare _write_trace's lines against",
}


def _ancestors(bases: dict[str, list[str]], name: str) -> set[str]:
    """The classes of src that the class name inherits from, at any depth."""
    out: set[str] = set()
    todo = list(bases.get(name, []))
    while todo:
        b = todo.pop()
        if b in bases and b not in out:
            out.add(b)
            todo += bases[b]
    return out


def unread_members(src: Path) -> list[str]:
    """module:Class.member of each method, property, dataclass field or
    class attribute (name = ... in the class body) of a class of src that
    no module of src reads as an attribute (x.member) in
    a statement other than the member's own body.  A read x.member counts
    for every class with such a member, whatever the type of x, except a
    read self.member, which counts only for the class whose body holds it
    and the classes of src related to that one by inheritance (ancestors
    and descendants); class names are unique in src.  A dunder member is
    read by Python itself, so it is left out."""
    trees = [(p.name, ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(src.glob("*.py"))]
    bases: dict[str, list[str]] = {}
    # each attribute load, with the class whose body holds it when x is self
    reads: dict[str, list[tuple[ast.AST, str | None]]] = {}

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = [b.id for b in child.bases if isinstance(b, ast.Name)]
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                on_self = isinstance(child.value, ast.Name) and child.value.id == "self"
                reads.setdefault(child.attr, []).append((child, cls if on_self else None))
            visit(child, cls)

    for _, tree in trees:
        visit(tree, None)

    def related(a: str, b: str) -> bool:
        return a == b or a in _ancestors(bases, b) or b in _ancestors(bases, a)

    out = []
    for module, tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, MEMBER_DEFS):
                    continue
                if isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign):
                    names = [node.target.id]
                else:
                    names = [node.name]
                own = {id(n) for n in ast.walk(node)}
                for name in names:
                    if name.startswith("__") and name.endswith("__"):
                        continue
                    if not any(id(r) not in own and (owner is None or related(owner, cls.name))
                               for r, owner in reads.get(name, [])):
                        out.append(f"{module}:{cls.name}.{name}")
    return out


def undocumented_exports(src: Path, exported, readme: str) -> list[str]:
    """Each exported name that no module of src reads and that the
    "## Library" section of readme, up to the next "## " heading, never
    names as a word."""
    read = set()
    for p in sorted(src.glob("*.py")):
        read |= _names(ast.parse(p.read_text(), filename=str(p)))
    m = re.search(r"^## Library\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    library = m.group(1) if m else ""
    return [name for name in exported if name not in read
            and not re.search(rf"\b{re.escape(name)}\b", library)]


def unread_imports(src: Path) -> list[str]:
    """module:name of each name that a module of src imports and never
    reads.  __init__.py imports to re-export, so it is left out, and so is
    a __future__ import."""
    out = []
    for p in sorted(src.glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text(), filename=str(p))
        read = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [f"{p.name}:{name}" for alias in node.names
                        if (name := alias.asname or alias.name.split(".")[0])
                        not in read]
    return out


# defaulted parameters that no module of the package sets, each with why
# the default stays a knob
SET_ELSEWHERE = {
    "cli.py:main(argv)": "tests pass an argument list; the console script passes none",
    "verify.py:triangle_family_check(candidate)":
        "tests check candidates other than the envelope T(h_max, t)",
}


def _functions(tree: ast.AST) -> list[tuple[str, ast.AST, bool]]:
    """(qualified name, definition, whether a call binds its first
    parameter) of each function in tree: a method binds self or cls, a
    staticmethod and a plain function bind nothing."""
    out = []

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                out.append((prefix + child.name, child, in_class and not static))
                visit(child, f"{prefix}{child.name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return out


def _sets(call: ast.Call, index: int | None, name: str) -> bool:
    """True when call passes the parameter at positional index (None for a
    keyword-only one) or named name; *args and **kwargs pass every
    parameter they could reach."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if index is None:
        return False
    return index < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)


def unset_parameters(src: Path) -> list[str]:
    """module:function(parameter) of each defaulted parameter of a function
    of src that no call in src sets, by position or by keyword.  A call
    f(...) or x.f(...) counts for every function of src named f, whatever
    x is, with a method's self or cls bound by the call."""
    trees = [(p.name, ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(src.glob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    out = []
    for module, tree in trees:
        for qualname, fn, bound in _functions(tree):
            a = fn.args
            positional = (a.posonlyargs + a.args)[bound:]
            knobs = [(i, arg) for i, arg in enumerate(positional)
                     if i >= len(positional) - len(a.defaults)]
            knobs += [(None, arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
            out += [f"{module}:{qualname}({arg.arg})" for i, arg in knobs
                    if not any(_sets(c, i, arg.arg) for c in calls.get(fn.name, []))]
    return out


def test_every_definition_is_used_or_exported():
    assert unused_definitions(SRC) == []


def test_a_definition_read_only_by_itself_is_unused(tmp_path):
    (tmp_path / "m.py").write_text(
        "def _loop(n):\n    return _loop(n - 1) if n else 0\n\n"
        "def _used():\n    return 1\n\n"
        "class _Box:\n    def _used(self):\n        return _used()\n\n"
        "def _reader(b):\n    return b._Box\n")
    assert unused_definitions(tmp_path) == ["m.py:_loop", "m.py:_Box", "m.py:_reader"]


def test_every_member_is_read_or_listed():
    assert sorted(unread_members(SRC)) == sorted(READ_ELSEWHERE)


def test_a_member_read_only_by_itself_is_unread(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Box:\n    size: int\n    label: str = ''\n"
        "    __hash__ = None\n    kind = 'box'\n"
        "    side = property(lambda self: self.side)\n\n"
        "    def grow(self):\n        return self.grow() if self.size else 0\n\n"
        "    @property\n    def area(self):\n        return self.size * self.size\n\n"
        "    def __len__(self):\n        return self.size\n\n"
        "def use(b):\n    b.label = 'x'\n    return b.area, b.kind\n")
    assert unread_members(tmp_path) == ["m.py:Box.label", "m.py:Box.side", "m.py:Box.grow"]


def test_a_self_read_counts_only_within_its_class_hierarchy(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Point:\n    def scale(self, k):\n        return k\n\n"
        "class Frame:\n    def __init__(self):\n        self.scale = 2\n\n"
        "    def at(self, x):\n        return x * self.scale\n\n"
        "class Base:\n    def holds(self):\n        return self.ring + self.size\n\n"
        "class Leaf(Base):\n    ring: int = 0\n\n"
        "class Sub(Leaf):\n    def size(self):\n        return 1\n\n"
        "    def width(self):\n        return 2\n\n"
        "class Other:\n    def reader(self):\n        return self.width\n\n"
        "def use(f, b, o):\n    return f.at(1), b.holds(), o.reader()\n")
    assert unread_members(tmp_path) == ["m.py:Point.scale", "m.py:Sub.width"]


def test_every_export_is_read_or_documented():
    assert undocumented_exports(SRC, errdiff.__all__, README.read_text()) == []


def test_an_export_read_nowhere_needs_the_library_section(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\n"
        "def shown():\n    return used()\n\n"
        "def hidden():\n    return 2\n\n"
        "def elsewhere():\n    return 3\n")
    readme = ("# m\n\nhidden\n\n## Library\n\n```python\nshown()\n```\n\n"
              "## Later\n\nelsewhere\n")
    assert undocumented_exports(tmp_path, ["used", "shown", "hidden", "elsewhere"],
                                readme) == ["hidden", "elsewhere"]


def test_every_import_is_read():
    assert unread_imports(SRC) == []


def test_an_import_read_nowhere_is_unread(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import _used\n")
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from math import gcd, lcm\n\n"
        "def _used(x: int) -> int:\n    return gcd(x, 2) + len(os.sep)\n")
    assert unread_imports(tmp_path) == ["m.py:system", "m.py:lcm"]


def test_every_defaulted_parameter_is_set_or_listed():
    assert sorted(unset_parameters(SRC)) == sorted(SET_ELSEWHERE)


def test_a_default_that_no_call_sets_is_unset(tmp_path):
    (tmp_path / "m.py").write_text(
        "def knob(x, scale=1, *, mode='a', spare=0):\n    return x * scale\n\n"
        "def wide(a=1, b=2):\n    return a + b\n\n"
        "class Box:\n    def grow(self, by=1, cap=None):\n        return by\n\n"
        "    @staticmethod\n    def make(size, label=''):\n        return size\n\n"
        "def use(b, args, opts):\n"
        "    knob(1, mode='b')\n    knob(*args)\n    wide(**opts)\n"
        "    b.grow(3)\n    return Box.make(1)\n")
    assert unset_parameters(tmp_path) == ["m.py:knob(spare)", "m.py:Box.grow(cap)",
                                          "m.py:Box.make(label)"]
