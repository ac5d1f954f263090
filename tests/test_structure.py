"""The package's own structure: no private top-level name is left unused.

Every top-level ``_``-prefixed function, class and constant of a module
under ``src/squashfitts`` must be referenced somewhere in the package
other than in its own definition: as a name, as an attribute or in an
import. A helper whose last caller went is then dead code, and this test
names it.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "squashfitts"
MODULES = sorted(PACKAGE.glob("*.py"))


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in MODULES}


def _private_definitions(tree: ast.Module) -> list:
    """(name, node) of each top-level _-prefixed def, class and assigned
    name; dunder names (__all__, __getattr__) are protocol, not helpers."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        found += [(name, node) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def _references(tree: ast.Module, skip: ast.AST | None = None) -> set:
    """Names read, attributes taken and names imported in tree, outside the
    subtree skip."""
    refs = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return refs


def test_the_package_has_modules():
    assert {"cli.py", "core.py", "plot.py", "stats.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", [p.name for p in MODULES])
def test_every_private_top_level_name_is_referenced(module):
    trees = _trees()
    others = set().union(*(_references(t) for name, t in trees.items() if name != module))
    unused = [name for name, node in _private_definitions(trees[module])
              if name not in others and name not in _references(trees[module], skip=node)]
    assert unused == []


def test_a_helper_left_behind_is_found():
    tree = ast.parse("def _left(): return _left()\n_KEPT = 1\ndef used(): return _KEPT\n")
    names = [name for name, node in _private_definitions(tree)
             if name not in _references(tree, skip=node)]
    assert names == ["_left"]
