"""The package's own structure: no private top-level name is left unused,
and only ValidationReport writes a validation entry.

Every top-level ``_``-prefixed function, class and constant of a module
under ``src/squashfitts`` must be referenced somewhere in the package
other than in its own definition: as a name, as an attribute or in an
import. A helper whose last caller went is then dead code, and this test
names it.

Every error and warning of a report is built by ValidationReport.error or
ValidationReport.warn: no other code appends to, or extends, a list called
errors or warnings, or takes a parameter of either name.
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


_ENTRY_LISTS = {"errors", "warnings"}


def _entry_writers(tree: ast.Module) -> list:
    """The line and source of each append or extend call on a name or
    attribute called errors or warnings, and of each function with a
    parameter of either name, outside the class ValidationReport."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "ValidationReport":
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if node.func.attr in ("append", "extend") and name in _ENTRY_LISTS:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            found += [f"{node.lineno}: parameter {p.arg}" for p in params
                      if p is not None and p.arg in _ENTRY_LISTS]
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("module", [p.name for p in MODULES])
def test_only_the_report_writes_its_entries(module):
    assert _entry_writers(_trees()[module]) == []


def test_an_entry_written_by_hand_is_found():
    tree = ast.parse("class ValidationReport:\n"
                     "    def error(self, row, column, message):\n"
                     "        self.errors.append((row, column, message))\n"
                     "def parse(report, warnings):\n"
                     "    report.errors.append((1, 'row', 'bad'))\n"
                     "    errors.extend([])\n"
                     "    report.warn(1, 'far')\n")
    assert _entry_writers(tree) == ["4: parameter warnings",
                                    "5: report.errors.append((1, 'row', 'bad'))",
                                    "6: errors.extend([])"]
