"""Guard against dead code: every module-level function or class in the
package is exported from __init__.py or referenced elsewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pathramsey"


def _definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _references(node: ast.AST) -> set[str]:
    """Names read, attributes accessed and names imported under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unreferenced_definitions(package: Path) -> list[str]:
    """Module-level definitions that nothing outside their own body names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    exported = _references(trees["__init__"])
    tops = [(top, _references(top)) for tree in trees.values() for top in tree.body]
    dead = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            used = exported.union(*(refs for top, refs in tops if top is not node))
            if node.name not in used:
                dead.append(f"{module}.{node.name}")
    return dead


def test_no_unreferenced_module_level_definitions():
    assert unreferenced_definitions(PACKAGE) == []


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return _helper()\n\n"
        "def _helper():\n    return 1\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n"
    )
    assert unreferenced_definitions(tmp_path) == ["a._dead"]
