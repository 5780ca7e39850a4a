"""Static checks on the package source, with the standard-library `ast`.

Four kinds of leftover fail here: an import that its module never uses
(in the package, its tests or its benchmark harness), a private
(underscore) module-level function or class that no module of the
package refers to, a public method that no attribute read in the
package, its tests or its benchmark harness names, and a public
module-level function that no module of the package reads outside its own
`def` and that `comitant.__all__` does not list.  All four are what a
refactor leaves behind when it moves code and forgets the old binding.

A fifth check keeps floats out: integral rationals circulate as Python
ints, and `/` on two ints is a float, so the package divides only through
`scalars.exact_div` and no `/` or `/=` may appear anywhere else.

A sixth keeps `geometry.py` field-generic: it names no `Fraction`, so its
constructions run unchanged over QQ, GF(p) and parameter rings.  No module
names `Matrix` or `_gauss_jordan` either: the package's one elimination is
`linalg.int_nullspace_mod_p`.  And only `scalars.py` and `poly.py` name
`rational_content`: every projective tuple, of polynomials or of scalars,
is scaled by `poly.normalize_jointly`, and no module defines a
`normalize_point` beside it.

A seventh keeps `verify.py`, `maps.py` and `associated.py` free of
aliases: they import their siblings as modules and no sibling function by
name, so a helper patched in its home module reaches every claim and every
self-map that calls it.  Classes, exception types and constants may still
be imported by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "comitant"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _exported(tree) -> set:
    """The strings listed in the module's __all__."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _referenced(tree) -> set:
    """Every name a module mentions: bare names, attribute names, and the
    strings listed in its __all__."""
    out = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
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


def _names_read(node) -> set:
    """Bare names and attribute names loaded anywhere under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _unread_public_functions(modules, exported) -> list:
    """Public module-level functions that no module reads outside the
    function's own `def` (a recursive call is no reader), minus the names
    in `exported`.  An import is no read either: the name must be used."""
    reads = [(node, _names_read(node))
             for tree in modules.values() for node in tree.body]
    return [f"{name}:{fn.lineno} {fn.name}"
            for name, tree in modules.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            and not fn.name.startswith("_") and fn.name not in exported
            and not any(fn.name in names for node, names in reads
                        if node is not fn)]


def _public_methods(tree):
    """(class name, def) of every public method of a module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield cls.name, node


def _true_divisions(modules) -> list:
    """Every `/` and `/=` in the modules outside `scalars.exact_div`."""
    allowed = {id(node) for fn in modules.get("scalars.py", ast.Module()).body
               if isinstance(fn, ast.FunctionDef) and fn.name == "exact_div"
               for node in ast.walk(fn)}
    return [f"{name}:{node.lineno}" for name, tree in modules.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div) and id(node) not in allowed]


def _names_used(tree, names) -> list:
    """Every bare name, attribute or import of the module among `names`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            hits = [node.id]
        elif isinstance(node, ast.Attribute):
            hits = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            hits = [a.asname or a.name for a in node.names]
        else:
            continue
        found += [f"{n}:{node.lineno}" for n in hits if n in names]
    return found


def _named_outside(modules, names, homes=()) -> list:
    """Every use of one of `names` in a module not listed in `homes`."""
    return [f"{name}:{hit}" for name, tree in modules.items()
            if name not in homes for hit in _names_used(tree, names)]


def _functions_imported_by_name(modules, name) -> list:
    """Every module-level function of a sibling that module `name` binds
    with `from .sibling import ...`."""
    found = []
    for node in ast.walk(modules[name]):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            home = modules[f"{node.module}.py"]
            defs = {f.name for f in home.body
                    if isinstance(f, ast.FunctionDef)}
            found += [f"{node.module}.{a.name}:{node.lineno}"
                      for a in node.names if a.name in defs]
    return found


def test_package_source_is_found():
    assert "poly.py" in _modules()


def test_no_unused_imports():
    # the package, its tests and its benchmark harness
    trees = {f"src/comitant/{name}": tree
             for name, tree in _modules().items()}
    for folder in ("tests", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            trees[f"{folder}/{path.name}"] = ast.parse(
                path.read_text(encoding="utf-8"), str(path))
    unused = []
    for name, tree in trees.items():
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


def test_no_unread_public_functions():
    modules = _modules()
    unread = _unread_public_functions(modules,
                                      _exported(modules["__init__.py"]))
    assert not unread, f"public functions nobody reads: {unread}"


def test_no_division_outside_exact_div():
    divisions = _true_divisions(_modules())
    assert not divisions, f"true divisions outside exact_div: {divisions}"


def test_geometry_names_no_matrix_and_no_fraction():
    used = _names_used(_modules()["geometry.py"], {"Fraction"})
    assert not used, f"geometry.py names a QQ-only type: {used}"
    used = _named_outside(_modules(), {"Matrix", "_gauss_jordan"})
    assert not used, f"a second elimination kernel: {used}"


def test_rational_content_is_named_only_where_scaling_lives():
    # polynomials and scalar points alike scale through
    # `poly.normalize_jointly`; no second copy of the rule
    used = _named_outside(_modules(), {"rational_content"},
                          {"scalars.py", "poly.py"})
    assert not used, f"rational_content outside its homes: {used}"
    defined = [f"{name}:{node.lineno}" for name, tree in _modules().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == "normalize_point"]
    assert not defined, f"normalize_point is defined again: {defined}"


def test_verify_imports_no_sibling_function_by_name():
    aliases = _functions_imported_by_name(_modules(), "verify.py")
    assert not aliases, f"verify.py binds a function by name: {aliases}"


def test_maps_and_associated_import_no_sibling_function_by_name():
    modules = _modules()
    aliases = [hit for name in ("maps.py", "associated.py")
               for hit in _functions_imported_by_name(modules, name)]
    assert not aliases, f"a sibling function bound by name: {aliases}"


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
    # public functions: one read, one exported, one read only by itself
    # and one only imported
    modules = {"a.py": ast.parse("def read():\n    return 1\n"
                                 "def exported():\n    return read()\n"
                                 "def recursive(n):\n"
                                 "    return recursive(n - 1) if n else 0\n"
                                 "def imported():\n    return 2\n"),
               "b.py": ast.parse("from .a import imported\n")}
    assert _unread_public_functions(modules, {"exported"}) == [
        "a.py:5 recursive", "a.py:7 imported"]
    # a / b and x /= 2 are caught, a // b and the / inside exact_div are not
    modules = {"scalars.py": ast.parse("def exact_div(a, b):\n"
                                       "    return a / b\n"),
               "m.py": ast.parse("def f(a, b):\n    x = a / b\n"
                                 "    x /= 2\n    return x // b\n")}
    assert sorted(_true_divisions(modules)) == ["m.py:2", "m.py:3"]
    # a planted Fraction(1, 2) and a Matrix import are caught, the same
    # words in a string are not
    tree = ast.parse("from .linalg import Matrix\n"
                     "half = Fraction(1, 2)\n"
                     "third = fractions.Fraction(1, 3)\n"
                     "doc = 'no Matrix, no Fraction'\n")
    assert sorted(_names_used(tree, {"Matrix", "Fraction"})) == [
        "Fraction:2", "Fraction:3", "Matrix:1"]
    # a scaling rule copied into geometry.py is caught, poly.py's is not
    modules = {"poly.py": ast.parse("from .scalars import rational_content\n"),
               "geometry.py": ast.parse(
                   "from .scalars import QQ, rational_content\n"
                   "c = rational_content([1, 2])\n")}
    assert _named_outside(modules, {"rational_content"}, {"poly.py"}) == [
        "geometry.py:rational_content:1", "geometry.py:rational_content:2"]
    # a function imported by name is caught; a module, a constant and a
    # class imported by name are not
    modules = {"verify.py": ast.parse("from . import maps\n"
                                      "from .maps import (PENCIL_VARS,\n"
                                      "    RationalMapP1, compose)\n"),
               "maps.py": ast.parse("PENCIL_VARS = ('t0', 't1')\n"
                                    "class RationalMapP1:\n    pass\n"
                                    "def compose(outer, inner):\n"
                                    "    return outer\n")}
    assert _functions_imported_by_name(modules, "verify.py") == [
        "maps.compose:2"]
    # the same in maps.py and associated.py: a Hessian and a composition
    # bound by name are caught, the module imports beside them are not
    modules = {"comitants.py": ast.parse("class Form:\n    pass\n"
                                         "def hessian(p, indices):\n"
                                         "    return p\n"),
               "maps.py": ast.parse("from . import comitants\n"
                                    "from .comitants import Form, hessian\n"
                                    "def compose(outer, inner):\n"
                                    "    return outer\n"),
               "associated.py": ast.parse("from . import maps\n"
                                          "from .maps import compose\n")}
    assert _functions_imported_by_name(modules, "maps.py") == [
        "comitants.hessian:2"]
    assert _functions_imported_by_name(modules, "associated.py") == [
        "maps.compose:2"]
