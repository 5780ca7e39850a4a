"""Static checks on the package source, with the standard-library `ast`.

Three kinds of leftover fail here: an import that its module never uses,
a private (underscore) module-level function or class that no module of
the package refers to, and a public method that no attribute read in the
package, its tests or its benchmark harness names.  All three are what a
refactor leaves behind when it moves code and forgets the old binding.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "comitant"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _referenced(tree) -> set:
    """Every name a module reads: bare names, attribute names, and the
    strings listed in its __all__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            out.update(ast.literal_eval(node.value))
    return out


def _imported(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _imported_names(tree) -> set:
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for name in (alias.name for alias in node.names)}


def _attributes_read(tree) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _public_methods(tree):
    """(class name, def) of every public method of a module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield cls.name, node


def test_package_source_is_found():
    assert "poly.py" in _modules()


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        used = _referenced(tree)
        unused += [f"{name}:{line} {bound}"
                   for bound, line in _imported(tree) if bound not in used]
    assert not unused, f"imported but never used: {unused}"


def test_no_unreferenced_private_definitions():
    modules = _modules()
    # a private name counts as referenced when some module reads it or
    # imports it by name; its own `def`/`class` statement is not a read
    used = set()
    for tree in modules.values():
        used |= _referenced(tree) | _imported_names(tree)
    dead = [f"{name}:{node.lineno} {node.name}"
            for name, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]
    assert not dead, f"private definitions nobody references: {dead}"


def test_no_unread_public_methods():
    # a method counts as used when some `x.name` reads it; a bare name or
    # a string does not, so a method kept only by its own `def` shows up
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            read |= _attributes_read(ast.parse(text, str(path)))
    unread = [f"{name}:{node.lineno} {cls}.{node.name}"
              for name, tree in _modules().items()
              for cls, node in _public_methods(tree) if node.name not in read]
    assert not unread, f"public methods nobody reads: {unread}"


def test_the_checks_catch_a_leftover():
    # a module with one unused import and one dead private helper
    tree = ast.parse("from fractions import Fraction\n"
                     "import math\n"
                     "def _dead():\n    return math.pi\n")
    assert [b for b, _ in _imported(tree) if b not in _referenced(tree)] \
        == ["Fraction"]
    assert "_dead" not in _referenced(tree) | _imported_names(tree)
    # a class with one method that is read and one that is not
    tree = ast.parse("class A:\n"
                     "    def used(self):\n        return 1\n"
                     "    def unused(self):\n        return 2\n"
                     "A().used()\n")
    assert [m.name for _, m in _public_methods(tree)
            if m.name not in _attributes_read(tree)] == ["unused"]
