"""The public surface is what the program uses.

Every name a module exports in `__all__` (and every name `evowaves`
exports) must resolve, and must be referenced by the program itself:
somewhere in `src/evowaves` outside its own definition, or by the
benchmark in `bench/*.py`.  A function whose only callers are tests does
not belong in the library.
"""

import ast
import importlib
import pathlib
import re

import evowaves

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "evowaves"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _exports():
    out = [("evowaves", name) for name in evowaves.__all__]
    for mod in MODULES:
        names = getattr(importlib.import_module(f"evowaves.{mod}"), "__all__", [])
        out += [(f"evowaves.{mod}", name) for name in names]
    return out


def _references(tree: ast.AST) -> list[tuple[str, frozenset[str]]]:
    """Every name and attribute used in tree, with the names of its enclosing definitions."""
    found = []

    def visit(node: ast.AST, owners: frozenset[str]) -> None:
        if isinstance(node, ast.Name):
            found.append((node.id, owners))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, owners))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_exports_resolve():
    missing = [f"{mod}.{name}" for mod, name in _exports() if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"exported but not defined: {missing}"


def test_exports_have_program_callers():
    used = {
        name
        for path in SRC.glob("*.py")
        for name, owners in _references(ast.parse(path.read_text()))
        if name not in owners
    }
    bench = "\n".join(path.read_text() for path in (ROOT / "bench").glob("*.py"))
    unused = sorted(
        {name for _, name in _exports() if name not in used and not re.search(rf"\b{name}\b", bench)}
    )
    assert not unused, f"exported but referenced only by tests: {unused}"
