"""Static checks on the package source, with the standard-library `ast`.

Two kinds of leftover fail here: an import that its module never uses, and
a private (underscore) module-level function or class that no module of
the package refers to.  Both are what a refactor leaves behind when it
moves code and forgets the old binding.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "comitant"


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


def test_the_checks_catch_a_leftover():
    # a module with one unused import and one dead private helper
    tree = ast.parse("from fractions import Fraction\n"
                     "import math\n"
                     "def _dead():\n    return math.pi\n")
    assert [b for b, _ in _imported(tree) if b not in _referenced(tree)] \
        == ["Fraction"]
    assert "_dead" not in _referenced(tree) | _imported_names(tree)
