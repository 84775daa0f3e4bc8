"""Source hygiene: no module of the package imports a name it never uses,
and no top-level function or class of the package goes unreferenced."""

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


def top_level_definitions(source: str) -> list:
    return [n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))]


def referenced_names(source: str) -> set:
    """Names a module loads, reads as an attribute, or imports."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def test_checker_flags_an_unreferenced_definition():
    source = "def used():\n    pass\n\n\nclass Orphan:\n    pass\n\nused()\n"
    refs = referenced_names(source)
    assert [d for d in top_level_definitions(source) if d not in refs] \
        == ["Orphan"]


def test_every_definition_has_a_reference():
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "bench").rglob("*.py")]
    refs = set().union(*(referenced_names(f.read_text(encoding="utf-8"))
                         for f in files))
    orphans = ["%s.%s" % (path.stem, name)
               for path in sorted(SRC.glob("*.py"))
               for name in top_level_definitions(
                   path.read_text(encoding="utf-8"))
               if name not in refs]
    assert orphans == []
