"""Every imported name is used, and every package definition is used or
exported: a small stand-in for a linter's unused-code rules."""
from __future__ import annotations

import ast

from conftest import ROOT

PACKAGE = sorted((ROOT / "src" / "restcheck").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(node: ast.expr) -> set[str]:
    """Names in an annotation, including those inside quoted annotations."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out |= _annotation_names(ast.parse(sub.value, mode="eval").body)
    return out


def _used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
        # arguments and annotated assignments carry `annotation`, functions `returns`
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if ann is not None:
                used |= _annotation_names(ann)
    return used


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = _used(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: '{name}' imported but unused"
                   for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def _referenced(node: ast.AST) -> set[str]:
    """Names a node refers to, as a bare name, an attribute or in `__all__`."""
    return _used(node) | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_no_orphan_definitions():
    """Every module-level function and class in the package is used by other
    package code or exported: a definition only tests call is dead weight."""
    statements = [(path, stmt) for path in PACKAGE
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    referenced = [_referenced(stmt) for _, stmt in statements]
    orphans = [f"{path.relative_to(ROOT)}:{stmt.lineno}: '{stmt.name}'"
               for i, (path, stmt) in enumerate(statements)
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not any(stmt.name in names
                           for j, names in enumerate(referenced) if j != i)]
    assert orphans == []
