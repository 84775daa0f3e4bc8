"""Source hygiene: no module of the package imports a name it never uses
or another module's private name, and every function, class and method of
the package has a caller in the package or the benchmark harness."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "otb"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import comb, gcd\n"
                          "gcd(4, 6)\n") == ["comb", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list:
    """The underscore names a module imports from an otb module (relative
    or absolute); dunders such as __version__ are public."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "otb"):
            out.extend(a.name for a in node.names
                       if a.name.startswith("_") and not (
                           a.name.startswith("__") and a.name.endswith("__")))
    return out


def test_checker_flags_a_private_import():
    assert private_imports("from . import __version__\n"
                           "from os import _exit\n"
                           "from .exact import _lift, rank\n"
                           "from otb.koszul import _theta\n") \
        == ["_lift", "_theta"]


def test_no_module_imports_a_private_name():
    """A module reaches another only through its public names, so a private
    helper can change without breaking a caller outside its module."""
    found = {path.name: private_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def definitions(source: str) -> list:
    """Top-level functions and classes, and the non-dunder methods of each
    top-level class as `Class.method`, each with the reference that counts
    for it: its name, or `.method`, an attribute read."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend(("%s.%s" % (node.name, m.name), "." + m.name)
                       for m in node.body
                       if isinstance(m, ast.FunctionDef)
                       and not (m.name.startswith("__")
                                and m.name.endswith("__")))
    return out


def referenced_names(source: str) -> set:
    """Names a module loads, reads as an attribute, or imports; an attribute
    read `x.m` also counts as `.m`, so that a local variable named `m` is
    no reference to a method `m`."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
            if isinstance(n.ctx, ast.Load):
                out.add("." + n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def unreferenced(source: str, refs: set) -> list:
    return [qual for qual, name in definitions(source) if name not in refs]


def test_checker_flags_an_unreferenced_definition():
    source = ("def used():\n    pass\n\n\n"
              "class Orphan:\n    pass\n\n\n"
              "class Kept:\n    def __init__(self):\n        pass\n\n"
              "    def spare(self):\n        pass\n\n"
              "    def called(self):\n        pass\n\n"
              "    def row(self):\n        pass\n\n\n"
              "used()\nKept().called()\nrow = 1\nprint(row)\n")
    assert unreferenced(source, referenced_names(source)) \
        == ["Orphan", "Kept.spare", "Kept.row"]


def test_every_definition_has_a_reference():
    """Every definition in src/otb has a caller in src/otb or bench/; a
    reference from tests/ does not count."""
    files = [*SRC.glob("*.py"), *(ROOT / "bench").rglob("*.py")]
    refs = set().union(*(referenced_names(f.read_text(encoding="utf-8"))
                         for f in files))
    orphans = ["%s.%s" % (path.stem, qual)
               for path in sorted(SRC.glob("*.py"))
               for qual in unreferenced(path.read_text(encoding="utf-8"),
                                        refs)]
    assert orphans == []
